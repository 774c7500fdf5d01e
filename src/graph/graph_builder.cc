#include "src/graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/util/logging.h"

namespace kboost {

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

GraphBuilder& GraphBuilder::AddEdge(NodeId from, NodeId to, double p,
                                    double p_boost) {
  KB_CHECK(from < num_nodes_) << "from=" << from << " n=" << num_nodes_;
  KB_CHECK(to < num_nodes_) << "to=" << to << " n=" << num_nodes_;
  KB_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
  KB_CHECK(p_boost >= p && p_boost <= 1.0)
      << "p=" << p << " p_boost=" << p_boost;
  edges_.push_back(Edge{from, to, static_cast<float>(p),
                        static_cast<float>(p_boost)});
  return *this;
}

size_t GraphBuilder::DeduplicateEdges() {
  size_t before = edges_.size();
  std::vector<Edge> kept;
  kept.reserve(edges_.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    if (e.from == e.to) continue;
    uint64_t key = (static_cast<uint64_t>(e.from) << 32) | e.to;
    if (seen.insert(key).second) kept.push_back(e);
  }
  edges_ = std::move(kept);
  return before - edges_.size();
}

GraphBuilder& GraphBuilder::AssignConstantProbability(double p) {
  KB_CHECK(p >= 0.0 && p <= 1.0);
  for (Edge& e : edges_) {
    e.p = static_cast<float>(p);
    e.p_boost = std::max(e.p_boost, e.p);
  }
  return *this;
}

GraphBuilder& GraphBuilder::AssignExponentialProbabilities(double mean,
                                                           Rng& rng) {
  KB_CHECK(mean > 0.0);
  for (Edge& e : edges_) {
    double p = std::min(rng.NextExponential(mean), 1.0);
    // Exponential can return exactly 0 only in the limit; clamp away from 0
    // so every edge keeps a usable probability.
    p = std::max(p, 1e-6);
    e.p = static_cast<float>(p);
    e.p_boost = std::max(e.p_boost, e.p);
  }
  return *this;
}

GraphBuilder& GraphBuilder::SetBoostWithBeta(double beta) {
  KB_CHECK(beta >= 1.0) << "beta=" << beta;
  for (Edge& e : edges_) {
    e.p_boost =
        static_cast<float>(1.0 - std::pow(1.0 - static_cast<double>(e.p),
                                          beta));
    e.p_boost = std::max(e.p_boost, e.p);  // guard against rounding
  }
  return *this;
}

DirectedGraph GraphBuilder::Build() && {
  DirectedGraph g;
  g.num_nodes_ = num_nodes_;
  const size_t m = edges_.size();

  // Out-adjacency: counting sort by source, then by target within source.
  g.out_offsets_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) ++g.out_offsets_[e.from + 1];
  for (size_t i = 1; i <= num_nodes_; ++i) {
    g.out_offsets_[i] += g.out_offsets_[i - 1];
  }
  g.out_edges_.resize(m);
  {
    std::vector<size_t> cursor(g.out_offsets_.begin(),
                               g.out_offsets_.end() - 1);
    for (const Edge& e : edges_) {
      g.out_edges_[cursor[e.from]++] =
          DirectedGraph::OutEdge{e.to, e.p, e.p_boost};
    }
  }
  for (NodeId u = 0; u < num_nodes_; ++u) {
    std::sort(g.out_edges_.begin() + g.out_offsets_[u],
              g.out_edges_.begin() + g.out_offsets_[u + 1],
              [](const DirectedGraph::OutEdge& a,
                 const DirectedGraph::OutEdge& b) { return a.to < b.to; });
  }

  // In-adjacency.
  g.in_offsets_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) ++g.in_offsets_[e.to + 1];
  for (size_t i = 1; i <= num_nodes_; ++i) {
    g.in_offsets_[i] += g.in_offsets_[i - 1];
  }
  g.in_edges_.resize(m);
  {
    std::vector<size_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (const Edge& e : edges_) {
      g.in_edges_[cursor[e.to]++] =
          DirectedGraph::InEdge{e.from, e.p, e.p_boost};
    }
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    std::sort(g.in_edges_.begin() + g.in_offsets_[v],
              g.in_edges_.begin() + g.in_offsets_[v + 1],
              [](const DirectedGraph::InEdge& a,
                 const DirectedGraph::InEdge& b) { return a.from < b.from; });
  }

  // Integer draw thresholds ceil(p · 2^53), parallel to in_edges_. Exact:
  // a float promoted to double has <= 24 significant bits, so multiplying
  // by 2^53 and taking ceil loses nothing, and `x < t` over 53-bit draws
  // reproduces `NextDouble() < p` bit for bit.
  g.in_thresholds_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const DirectedGraph::InEdge& e = g.in_edges_[i];
    g.in_thresholds_[i] = DirectedGraph::InThreshold{
        static_cast<uint64_t>(
            std::ceil(static_cast<double>(e.p) * 0x1.0p53)),
        static_cast<uint64_t>(
            std::ceil(static_cast<double>(e.p_boost) * 0x1.0p53))};
  }

  edges_.clear();
  return g;
}

}  // namespace kboost
