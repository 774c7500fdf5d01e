#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_builder.h"
#include "src/graph/graph_io.h"
#include "src/util/rng.h"

namespace kboost {
namespace {

TEST(GraphBuilderTest, BuildsCsrBothDirections) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 0.5, 0.7);
  b.AddEdge(0, 2, 0.1, 0.2);
  b.AddEdge(2, 1, 0.3, 0.3);
  DirectedGraph g = std::move(b).Build();

  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(1), 0u);
  EXPECT_EQ(g.InDegree(1), 2u);
  EXPECT_EQ(g.InDegree(3), 0u);

  auto out0 = g.OutEdges(0);
  ASSERT_EQ(out0.size(), 2u);
  EXPECT_EQ(out0[0].to, 1u);  // sorted by target
  EXPECT_FLOAT_EQ(out0[0].p, 0.5f);
  EXPECT_FLOAT_EQ(out0[0].p_boost, 0.7f);
  EXPECT_EQ(out0[1].to, 2u);

  auto in1 = g.InEdges(1);
  ASSERT_EQ(in1.size(), 2u);
  EXPECT_EQ(in1[0].from, 0u);  // sorted by source
  EXPECT_EQ(in1[1].from, 2u);
  EXPECT_FLOAT_EQ(in1[1].p, 0.3f);
}

TEST(GraphBuilderTest, InOutEdgeCountsAgree) {
  Rng rng(3);
  GraphBuilder b = BuildErdosRenyi(50, 400, rng);
  b.AssignConstantProbability(0.1);
  DirectedGraph g = std::move(b).Build();
  size_t out_total = 0, in_total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out_total += g.OutDegree(v);
    in_total += g.InDegree(v);
  }
  EXPECT_EQ(out_total, g.num_edges());
  EXPECT_EQ(in_total, g.num_edges());
}

TEST(GraphBuilderTest, DeduplicateRemovesDupsAndSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.5, 0.5);
  b.AddEdge(0, 1, 0.9, 0.9);  // duplicate
  b.AddEdge(1, 1, 0.2, 0.2);  // self loop
  b.AddEdge(1, 2, 0.3, 0.3);
  EXPECT_EQ(b.DeduplicateEdges(), 2u);
  DirectedGraph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 2u);
  // First occurrence wins.
  EXPECT_FLOAT_EQ(g.OutEdges(0)[0].p, 0.5f);
}

TEST(GraphBuilderTest, BoostBetaMatchesFormula) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.2);
  b.SetBoostWithBeta(2.0);
  DirectedGraph g = std::move(b).Build();
  EXPECT_NEAR(g.OutEdges(0)[0].p_boost, 1.0 - 0.8 * 0.8, 1e-6);
}

TEST(GraphTest, AverageProbability) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.2).AddEdge(1, 2, 0.4);
  DirectedGraph g = std::move(b).Build();
  EXPECT_NEAR(g.AverageProbability(), 0.3, 1e-6);
}

TEST(GraphIoTest, SaveLoadRoundTrip) {
  Rng rng(4);
  GraphBuilder b = BuildErdosRenyi(25, 120, rng);
  b.AssignExponentialProbabilities(0.2, rng);
  DirectedGraph g = std::move(b).Build();

  const std::string path =
      (std::filesystem::temp_directory_path() / "kboost_io_test.txt")
          .string();
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  StatusOr<DirectedGraph> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const DirectedGraph& g2 = loaded.value();
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto a = g.OutEdges(v);
    auto c = g2.OutEdges(v);
    ASSERT_EQ(a.size(), c.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, c[i].to);
      EXPECT_NEAR(a[i].p, c[i].p, 1e-5);
      EXPECT_NEAR(a[i].p_boost, c[i].p_boost, 1e-5);
    }
  }
  std::filesystem::remove(path);
}

TEST(GraphIoTest, LoadToleratesCrlfLineEndings) {
  // Windows-edited edge lists terminate lines with \r\n; the trailing \r
  // must not break the header, comment, blank-line or edge parsing.
  const std::string path =
      (std::filesystem::temp_directory_path() / "kboost_crlf.txt").string();
  FILE* f = fopen(path.c_str(), "w");
  fputs("# comment\r\n3 2\r\n\r\n0 1 0.5 0.7\r\n1 2 0.25\r\n", f);
  fclose(f);
  StatusOr<DirectedGraph> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const DirectedGraph& g = loaded.value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  ASSERT_EQ(g.OutEdges(0).size(), 1u);
  EXPECT_NEAR(g.OutEdges(0)[0].p, 0.5, 1e-6);
  EXPECT_NEAR(g.OutEdges(0)[0].p_boost, 0.7, 1e-6);
  // p_boost defaults to p when omitted — also on a CRLF line.
  ASSERT_EQ(g.OutEdges(1).size(), 1u);
  EXPECT_NEAR(g.OutEdges(1)[0].p_boost, 0.25, 1e-6);
  std::filesystem::remove(path);
}

TEST(GraphIoTest, LoadRejectsUnparseableProbabilityToken) {
  // Regression: `ls >> p` failing on a non-numeric token used to leave p at
  // 0.0, which passed the range check and silently loaded a corrupt graph.
  const std::string path =
      (std::filesystem::temp_directory_path() / "kboost_badtok.txt").string();
  for (const char* body : {"2 1\n0 1 foo\n",         // unparseable p
                           "2 1\n0 1 0.5 bar\n",     // unparseable p_boost
                           "2 1\n0 1foo\n",          // garbage glued to `to`
                           "2 1\n0 1 0.5 0.7 9\n",   // trailing garbage
                           "2 1\n0 1 0.5 0.7 x\n",   // trailing garbage
                           "2 1\n0 1 0.5 -0.2\n"}) {  // explicit negative pb
    FILE* f = fopen(path.c_str(), "w");
    fputs(body, f);
    fclose(f);
    StatusOr<DirectedGraph> r = LoadEdgeList(path);
    EXPECT_FALSE(r.ok()) << body;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << body;
  }
  std::filesystem::remove(path);
}

TEST(GraphIoTest, LoadStillAcceptsOmittedProbabilities) {
  // The probability tokens stay optional: `u v` (p = 0) and `u v p`
  // (p_boost = p) both remain valid, including with trailing whitespace.
  const std::string path =
      (std::filesystem::temp_directory_path() / "kboost_opt.txt").string();
  FILE* f = fopen(path.c_str(), "w");
  fputs("3 2\n0 1\n1 2 0.25 \n", f);
  fclose(f);
  StatusOr<DirectedGraph> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NEAR(loaded->OutEdges(0)[0].p, 0.0, 1e-12);
  EXPECT_NEAR(loaded->OutEdges(1)[0].p, 0.25, 1e-6);
  EXPECT_NEAR(loaded->OutEdges(1)[0].p_boost, 0.25, 1e-6);
  std::filesystem::remove(path);
}

TEST(GraphIoTest, LoadRejectsMissingFile) {
  StatusOr<DirectedGraph> r = LoadEdgeList("/nonexistent/zzz.txt");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, LoadRejectsBadProbabilities) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kboost_bad.txt").string();
  FILE* f = fopen(path.c_str(), "w");
  fputs("2 1\n0 1 0.9 0.5\n", f);  // p_boost < p
  fclose(f);
  EXPECT_FALSE(LoadEdgeList(path).ok());
  std::filesystem::remove(path);
}

TEST(GraphIoTest, LoadRejectsOutOfRangeEndpoint) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kboost_oob.txt").string();
  FILE* f = fopen(path.c_str(), "w");
  fputs("2 1\n0 5 0.5 0.5\n", f);
  fclose(f);
  EXPECT_FALSE(LoadEdgeList(path).ok());
  std::filesystem::remove(path);
}

TEST(GeneratorsTest, ErdosRenyiExactEdgeCount) {
  Rng rng(10);
  GraphBuilder b = BuildErdosRenyi(30, 200, rng);
  EXPECT_EQ(b.num_edges(), 200u);
  DirectedGraph g = std::move(b).Build();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& e : g.OutEdges(v)) EXPECT_NE(e.to, v);  // no self loops
  }
}

TEST(GeneratorsTest, PreferentialAttachmentHasSkewedInDegrees) {
  Rng rng(21);
  GraphBuilder b = BuildPreferentialAttachment(2000, 4, 0.0, rng);
  DirectedGraph g = std::move(b).Build();
  size_t max_in = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_in = std::max(max_in, g.InDegree(v));
  }
  const double avg_in =
      static_cast<double>(g.num_edges()) / g.num_nodes();
  // Power-law-ish tail: hub far above the mean.
  EXPECT_GT(static_cast<double>(max_in), 10 * avg_in);
}

TEST(GeneratorsTest, PreferentialAttachmentReciprocityAddsBackEdges) {
  Rng rng(22);
  GraphBuilder b = BuildPreferentialAttachment(500, 3, 1.0, rng);
  DirectedGraph g = std::move(b).Build();
  // With reciprocity 1, every edge's reverse must exist.
  size_t missing = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& e : g.OutEdges(v)) {
      bool found = false;
      for (const auto& r : g.OutEdges(e.to)) {
        if (r.to == v) {
          found = true;
          break;
        }
      }
      missing += !found;
    }
  }
  EXPECT_EQ(missing, 0u);
}

TEST(GeneratorsTest, DirectedPathAndStar) {
  DirectedGraph path = std::move(BuildDirectedPath(5)).Build();
  EXPECT_EQ(path.num_edges(), 4u);
  DirectedGraph star = std::move(BuildOutStar(6)).Build();
  EXPECT_EQ(star.num_nodes(), 7u);
  EXPECT_EQ(star.OutDegree(0), 6u);
}

class GeneratorSweep : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorSweep, EdgesAlwaysValid) {
  Rng rng(GetParam());
  GraphBuilder b =
      BuildPreferentialAttachment(300, 1 + GetParam() % 5, 0.3, rng);
  b.AssignExponentialProbabilities(0.1, rng);
  b.SetBoostWithBeta(2.0 + GetParam() % 3);
  DirectedGraph g = std::move(b).Build();
  EXPECT_GT(g.num_edges(), 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& e : g.OutEdges(v)) {
      EXPECT_LT(e.to, g.num_nodes());
      EXPECT_GT(e.p, 0.0f);
      EXPECT_LE(e.p, 1.0f);
      EXPECT_GE(e.p_boost, e.p);
      EXPECT_LE(e.p_boost, 1.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSweep, ::testing::Range(1, 11));

}  // namespace
}  // namespace kboost
