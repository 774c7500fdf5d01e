#ifndef KBOOST_EXPT_DATASETS_H_
#define KBOOST_EXPT_DATASETS_H_

#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/status.h"

namespace kboost {

/// Specification of a synthetic stand-in for one of the paper's datasets.
/// The topology is directed preferential attachment matched to (n, m); edge
/// probabilities are Exponential with the mean calibrated so that the
/// *capped* distribution hits the paper's average influence probability
/// (Table 1). See DESIGN.md §3 for why this preserves the experiments'
/// shape.
struct DatasetSpec {
  std::string name;
  NodeId num_nodes = 0;
  size_t num_edges = 0;
  double avg_probability = 0.1;
  double reciprocity = 0.2;
  double beta = 2.0;  ///< p' = 1 - (1-p)^beta
  uint64_t seed = 2017;
};

/// A realized dataset.
struct Dataset {
  std::string name;
  DirectedGraph graph;
};

/// OK when every stand-in can be built at `scale` and `beta`: scale in
/// (0, 1] and beta >= 1. Else InvalidArgument naming the bad value — the
/// one check behind PaperDatasetSpecs, FindDatasetSpec and the tools'
/// --scale/--beta flags.
Status ValidateDatasetParams(double scale, double beta = 2.0);

/// The four stand-ins (digg, flixster, twitter, flickr) at `scale` times the
/// paper's node/edge counts. scale = 1 reproduces paper-scale sizes;
/// the benches default to a laptop-friendly fraction. Aborts unless
/// ValidateDatasetParams(scale, beta) holds.
std::vector<DatasetSpec> PaperDatasetSpecs(double scale, double beta = 2.0);

/// Builds the graph for a spec.
Dataset MakeDataset(const DatasetSpec& spec);

/// The spec for `name` ("digg" | "flixster" | "twitter" | "flickr"), or
/// InvalidArgument for an unknown name or parameters ValidateDatasetParams
/// rejects. For user input; never aborts.
StatusOr<DatasetSpec> FindDatasetSpec(const std::string& name, double scale,
                                      double beta = 2.0);

/// FindDatasetSpec for names and parameters the caller knows are valid:
/// aborts on anything it rejects.
DatasetSpec SpecByName(const std::string& name, double scale,
                       double beta = 2.0);

/// Solves m* (1 - exp(-1/m*)) = target for the exponential mean so the
/// capped-at-1 draw matches the requested average probability. Exposed for
/// testing.
double CalibrateExponentialMean(double target_mean);

}  // namespace kboost

#endif  // KBOOST_EXPT_DATASETS_H_
