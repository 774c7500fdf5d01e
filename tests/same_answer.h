#ifndef KBOOST_TESTS_SAME_ANSWER_H_
#define KBOOST_TESTS_SAME_ANSWER_H_

// The comparators behind the serving guarantee — an answer is bit-identical
// to its reference, doubles compared with == — shared by every suite that
// checks it: in process, across thread counts and snapshot loads, under
// concurrent load and over the wire.
//
//   EXPECT_TRUE(SameAnswer(got, want));          // names the first mismatch
//   if (!SameAnswer(got, want)) divergent++;     // storms count instead

#include <gtest/gtest.h>

#include <utility>

#include "src/core/boost_session.h"
#include "src/core/prr_boost.h"
#include "src/net/wire.h"
#include "src/serve/boost_service.h"

namespace kboost {

/// The reference answer at budget `k` in the session's native mode:
/// prepares `session` (a no-op once it is) and solves. A failed solve fails
/// the calling test and returns an empty answer.
inline BoostResult SolveAt(BoostSession& session, size_t k) {
  session.Prepare();
  StatusOr<BoostResult> answer = session.Solve({.k = k});
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return answer.ok() ? std::move(answer).value() : BoostResult{};
}

/// Every field of two answers, doubles bit for bit.
inline ::testing::AssertionResult SameAnswer(const BoostResult& a,
                                             const BoostResult& b) {
  const char* differs =
      a.best_set != b.best_set                   ? "best_set"
      : a.best_estimate != b.best_estimate       ? "best_estimate"
      : a.lb_set != b.lb_set                     ? "lb_set"
      : a.lb_mu_hat != b.lb_mu_hat               ? "lb_mu_hat"
      : a.lb_delta_hat != b.lb_delta_hat         ? "lb_delta_hat"
      : a.delta_set != b.delta_set               ? "delta_set"
      : a.delta_delta_hat != b.delta_delta_hat   ? "delta_delta_hat"
      : a.pool_budget != b.pool_budget           ? "pool_budget"
      : a.num_samples != b.num_samples           ? "num_samples"
      : a.samples_capped != b.samples_capped     ? "samples_capped"
      : a.num_boostable != b.num_boostable       ? "num_boostable"
      : a.num_activated != b.num_activated       ? "num_activated"
      : a.num_hopeless != b.num_hopeless         ? "num_hopeless"
      : a.avg_uncompressed_edges != b.avg_uncompressed_edges
          ? "avg_uncompressed_edges"
      : a.avg_compressed_edges != b.avg_compressed_edges
          ? "avg_compressed_edges"
      : a.compression_ratio != b.compression_ratio ? "compression_ratio"
      : a.stored_graph_bytes != b.stored_graph_bytes ? "stored_graph_bytes"
      : a.edges_examined != b.edges_examined     ? "edges_examined"
                                                 : nullptr;
  if (differs == nullptr) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << differs << " differs";
}

/// Every field a wire reply carries equals the in-process response's,
/// doubles bit for bit, the answering pool's version included; only the
/// solve's wall-clock time may differ.
inline ::testing::AssertionResult SameAnswer(const WireQueryReply& got,
                                             const BoostResponse& want) {
  const BoostResult& r = want.result;
  const char* differs =
      got.pool_version != want.pool_version       ? "pool_version"
      : got.best_set != r.best_set                ? "best_set"
      : got.best_estimate != r.best_estimate      ? "best_estimate"
      : got.lb_set != r.lb_set                    ? "lb_set"
      : got.lb_mu_hat != r.lb_mu_hat              ? "lb_mu_hat"
      : got.lb_delta_hat != r.lb_delta_hat        ? "lb_delta_hat"
      : got.delta_set != r.delta_set              ? "delta_set"
      : got.delta_delta_hat != r.delta_delta_hat  ? "delta_delta_hat"
      : got.pool_budget != r.pool_budget          ? "pool_budget"
      : got.num_samples != r.num_samples          ? "num_samples"
      : got.num_boostable != r.num_boostable      ? "num_boostable"
                                                  : nullptr;
  if (differs == nullptr) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << differs << " differs";
}

}  // namespace kboost

#endif  // KBOOST_TESTS_SAME_ANSWER_H_
