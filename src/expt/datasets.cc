#include "src/expt/datasets.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/graph/generators.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace kboost {

Status ValidateDatasetParams(double scale, double beta) {
  char bad[64];
  if (!(scale > 0.0 && scale <= 1.0)) {
    std::snprintf(bad, sizeof(bad), "scale must be in (0, 1], got %g", scale);
  } else if (!(beta >= 1.0)) {
    std::snprintf(bad, sizeof(bad), "beta must be >= 1, got %g", beta);
  } else {
    return Status::Ok();
  }
  return Status::InvalidArgument(bad);
}

std::vector<DatasetSpec> PaperDatasetSpecs(double scale, double beta) {
  KB_CHECK_OK(ValidateDatasetParams(scale, beta));
  // Paper Table 1: n, m, average influence probability.
  struct Raw {
    const char* name;
    size_t n, m;
    double p;
    uint64_t seed;
  };
  static constexpr Raw kRaw[] = {
      {"digg", 28'000, 200'000, 0.239, 11},
      {"flixster", 96'000, 485'000, 0.228, 13},
      {"twitter", 323'000, 2'140'000, 0.608, 17},
      {"flickr", 1'450'000, 2'150'000, 0.013, 19},
  };
  std::vector<DatasetSpec> specs;
  for (const Raw& r : kRaw) {
    DatasetSpec spec;
    spec.name = r.name;
    spec.num_nodes = static_cast<NodeId>(
        std::max<size_t>(100, static_cast<size_t>(r.n * scale)));
    spec.num_edges = std::max<size_t>(
        spec.num_nodes, static_cast<size_t>(r.m * scale));
    spec.avg_probability = r.p;
    spec.beta = beta;
    spec.seed = r.seed;
    specs.push_back(spec);
  }
  return specs;
}

StatusOr<DatasetSpec> FindDatasetSpec(const std::string& name, double scale,
                                      double beta) {
  if (Status params = ValidateDatasetParams(scale, beta); !params.ok()) {
    return params;
  }
  for (DatasetSpec& spec : PaperDatasetSpecs(scale, beta)) {
    if (spec.name == name) return spec;
  }
  return Status::InvalidArgument("unknown dataset '" + name +
                                 "' (digg|flixster|twitter|flickr)");
}

DatasetSpec SpecByName(const std::string& name, double scale, double beta) {
  StatusOr<DatasetSpec> spec = FindDatasetSpec(name, scale, beta);
  KB_CHECK_OK(spec.status());
  return std::move(spec).value();
}

double CalibrateExponentialMean(double target_mean) {
  KB_CHECK(target_mean > 0.0 && target_mean < 1.0);
  // E[min(Exp(m), 1)] = m (1 - e^{-1/m}), increasing in m: bisect.
  double lo = target_mean, hi = 50.0;
  for (int iter = 0; iter < 200; ++iter) {
    double m = 0.5 * (lo + hi);
    double value = m * (1.0 - std::exp(-1.0 / m));
    if (value < target_mean) {
      lo = m;
    } else {
      hi = m;
    }
  }
  return 0.5 * (lo + hi);
}

Dataset MakeDataset(const DatasetSpec& spec) {
  Rng rng(spec.seed);
  const double out_degree =
      std::max(0.5, static_cast<double>(spec.num_edges) /
                        (static_cast<double>(spec.num_nodes) *
                         (1.0 + spec.reciprocity)));
  GraphBuilder builder = BuildPreferentialAttachment(
      spec.num_nodes, out_degree, spec.reciprocity, rng);
  builder.AssignExponentialProbabilities(
      CalibrateExponentialMean(spec.avg_probability), rng);
  builder.SetBoostWithBeta(spec.beta);
  Dataset dataset;
  dataset.name = spec.name;
  dataset.graph = std::move(builder).Build();
  return dataset;
}

}  // namespace kboost
