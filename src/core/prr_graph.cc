#include "src/core/prr_graph.h"

#include <algorithm>

#include "src/core/prr_store.h"
#include "src/util/logging.h"

namespace kboost {

size_t PrrGraph::MemoryBytes() const {
  return global_ids.capacity() * sizeof(NodeId) +
         (out_offsets.capacity() + out_edges.capacity() +
          in_offsets.capacity() + in_edges.capacity() +
          critical_locals.capacity()) *
             sizeof(uint32_t);
}

PrrGenerator::PrrGenerator(const DirectedGraph& graph,
                           const std::vector<NodeId>& seeds)
    : graph_(graph),
      is_seed_(graph.num_nodes(), 0),
      visit_stamp_(graph.num_nodes(), 0),
      local_index_(graph.num_nodes(), 0) {
  for (NodeId s : seeds) {
    KB_CHECK(s < graph.num_nodes());
    is_seed_[s] = 1;
  }
  size_t max_in_degree = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    max_in_degree = std::max(max_in_degree, graph.InDegree(v));
  }
  pass_buf_.resize(max_in_degree);
}

uint32_t PrrGenerator::LocalOf(NodeId global) {
  if (visit_stamp_[global] != stamp_) {
    visit_stamp_[global] = stamp_;
    local_index_[global] = static_cast<uint32_t>(locals_.size());
    locals_.push_back(global);
    dist_.push_back(kInf);
    in_run_start_.push_back(0);
    in_run_end_.push_back(0);
  }
  return local_index_[global];
}

PrrGenResult PrrGenerator::GenerateRandomRoot(size_t k, bool lb_only,
                                              Rng& rng, PrrStore* sink) {
  NodeId root = static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
  return Generate(root, k, lb_only, rng, sink);
}

PrrGenResult PrrGenerator::Generate(NodeId root, size_t k, bool lb_only,
                                    Rng& rng, PrrStore* sink) {
  KB_CHECK(root < graph_.num_nodes());
  PrrGenResult result;
  if (is_seed_[root]) {
    result.status = PrrStatus::kActivated;
    return result;
  }

  // ---- Phase I: backward 0/1-BFS from the root (Algorithm 1) ----
  ++stamp_;
  if (stamp_ == 0) {  // wrapped: reset stamps
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    stamp_ = 1;
  }
  locals_.clear();
  dist_.clear();
  edges_.clear();
  in_run_start_.clear();
  in_run_end_.clear();
  queue_.clear();

  const uint32_t root_local = LocalOf(root);
  dist_[root_local] = 0;
  queue_.emplace_back(root_local, 0);

  // LB mode only needs paths with at most one live-upon-boost edge.
  const uint32_t prune =
      lb_only ? static_cast<uint32_t>(std::min<size_t>(k, 1))
              : static_cast<uint32_t>(k);
  bool seed_found = false;
  // Local copy keeps the 4-word RNG state in registers across the scan;
  // written back before every return.
  Rng local_rng = rng;

  // Hot loop: one RNG draw per examined in-edge, in BFS pop order — the
  // realization is bit-identical to drawing inside a branchy loop. The scan
  // is two-phase to keep the pipeline full: phase one draws every edge of
  // the popped node branchlessly and collects survivors (GraphBuilder
  // guarantees p <= p_boost, so one compare against p_boost classifies
  // blocked edges and `x >= p` recovers the boost bit); phase two does the
  // BFS bookkeeping only for the ~p_boost fraction that passed. Each sample
  // has its own Rng, so drawing a popped node's edges eagerly — even when
  // an activation early-return follows — cannot perturb any other sample.
  size_t edges_examined = 0;
  while (!queue_.empty()) {
    auto [u_local, dur] = queue_.front();
    queue_.pop_front();
    if (dur > dist_[u_local]) continue;  // stale entry
    const NodeId u_global = locals_[u_local];
    const std::span<const DirectedGraph::InEdge> in_edges =
        graph_.InEdges(u_global);
    const std::span<const DirectedGraph::InThreshold> thresholds =
        graph_.InThresholds(u_global);
    const size_t degree = in_edges.size();
    edges_examined += degree;
    size_t passed = 0;
    for (size_t i = 0; i < degree; ++i) {
      const uint64_t x = local_rng.NextU64() >> 11;  // 53-bit draw
      const DirectedGraph::InThreshold& t = thresholds[i];
      // Survivors carry (source << 1) | boost; the process loop never
      // touches the adjacency arrays again.
      pass_buf_[passed] =
          (in_edges[i].from << 1) | static_cast<uint32_t>(x >= t.p);
      passed += x < t.p_boost;
    }
    const uint32_t run_start = static_cast<uint32_t>(edges_.size());
    for (size_t s = 0; s < passed; ++s) {
      const uint32_t rec = pass_buf_[s];
      const NodeId from = rec >> 1;
      const bool boost = (rec & 1u) != 0;
      const uint32_t dvr = dur + (boost ? 1u : 0u);
      if (dvr > prune) continue;  // pruning (Line 11)
      const uint32_t v_local = LocalOf(from);
      edges_.push_back(PackLocalEdge(v_local, u_local, boost));
      if (dvr < dist_[v_local]) {
        dist_[v_local] = dvr;
        if (is_seed_[from]) {
          if (dvr == 0) {
            result.status = PrrStatus::kActivated;
            result.edges_examined = edges_examined;
            rng = local_rng;
            return result;
          }
          seed_found = true;  // seeds are never expanded further
        } else if (dvr == dur) {
          queue_.emplace_front(v_local, dvr);
        } else {
          queue_.emplace_back(v_local, dvr);
        }
      }
    }
    in_run_start_[u_local] = run_start;
    in_run_end_[u_local] = static_cast<uint32_t>(edges_.size());
  }
  result.edges_examined = edges_examined;
  rng = local_rng;

  if (!seed_found) {
    result.status = PrrStatus::kHopeless;
    return result;
  }
  result.status = PrrStatus::kBoostable;
  result.uncompressed_edges = edges_.size();

  if (lb_only) {
    ExtractCriticalLbOnly(root_local, &result);
  } else {
    Compress(root_local, k, &result, sink);
  }
  return result;
}

void PrrGenerator::BuildLocalOutCsr() {
  const size_t num_locals = locals_.size();
  csr_offsets_.assign(num_locals + 1, 0);
  for (const uint64_t e : edges_) ++csr_offsets_[LocalEdgeFrom(e) + 1];
  for (size_t v = 0; v < num_locals; ++v) {
    csr_offsets_[v + 1] += csr_offsets_[v];
  }
  csr_edges_.resize(edges_.size());
  cursor_.assign(csr_offsets_.begin(), csr_offsets_.end() - 1);
  for (const uint64_t e : edges_) {
    csr_edges_[cursor_[LocalEdgeFrom(e)]++] =
        (LocalEdgeTo(e) << 1) | static_cast<uint32_t>(e & 1u);
  }
}

void PrrGenerator::Compress(uint32_t root_local, size_t k,
                            PrrGenResult* result, PrrStore* sink) {
  const size_t num_locals = locals_.size();

  BuildLocalOutCsr();

  // ---- Forward 0/1-BFS from seeds: ds_[v] = min #boosts to activate v ----
  ds_.assign(num_locals, kInf);
  queue_.clear();
  for (uint32_t v = 0; v < num_locals; ++v) {
    if (is_seed_[locals_[v]]) {
      ds_[v] = 0;
      queue_.emplace_back(v, 0);
    }
  }
  while (!queue_.empty()) {
    auto [u, du] = queue_.front();
    queue_.pop_front();
    if (du > ds_[u]) continue;
    for (uint32_t s = csr_offsets_[u]; s < csr_offsets_[u + 1]; ++s) {
      const uint32_t packed = csr_edges_[s];
      const uint32_t to = packed >> 1;
      const uint32_t boost = packed & 1u;
      const uint32_t dv = du + boost;
      if (dv > k || dv >= ds_[to]) continue;
      ds_[to] = dv;
      if (boost) {
        queue_.emplace_back(to, dv);
      } else {
        queue_.emplace_front(to, dv);
      }
    }
  }
  // Phase I guarantees no live seed→root path survives.
  KB_DCHECK(ds_[root_local] != 0) << "activated graph reached compression";

  // ---- Backward 0/1-BFS from root restricted to nodes outside X ----
  // (paths through X would pass "through the super-seed").
  dpr_.assign(num_locals, kInf);
  queue_.clear();
  dpr_[root_local] = 0;
  queue_.emplace_back(root_local, 0);
  while (!queue_.empty()) {
    auto [u, du] = queue_.front();
    queue_.pop_front();
    if (du > dpr_[u]) continue;
    for (uint32_t s = in_run_start_[u]; s < in_run_end_[u]; ++s) {
      const uint64_t e = edges_[s];
      const uint32_t v = LocalEdgeFrom(e);
      if (ds_[v] == 0) continue;  // v ∈ X: contracted into the super-seed
      const uint32_t boost = static_cast<uint32_t>(e & 1u);
      const uint32_t dv = du + boost;
      if (dv > k || dv >= dpr_[v]) continue;
      dpr_[v] = dv;
      if (boost) {
        queue_.emplace_back(v, dv);
      } else {
        queue_.emplace_front(v, dv);
      }
    }
  }

  // ---- Keep set: every path through v must fit in the budget ----
  // new_id_: 0 = super-seed, 1 = root, 2.. = kept intermediates.
  new_id_.assign(num_locals, kInf);
  new_id_[root_local] = PrrGraph::kRootLocal;
  uint32_t next_id = 2;
  for (uint32_t v = 0; v < num_locals; ++v) {
    if (v == root_local || ds_[v] == 0) continue;
    if (ds_[v] == kInf || dpr_[v] == kInf) continue;
    if (static_cast<size_t>(ds_[v]) + dpr_[v] > k) continue;
    new_id_[v] = next_id++;
  }
  const uint32_t compact_n = next_id;

  // ---- Emit compressed edges as flat (node, packed) pairs ----
  emit_edges_.clear();
  flag_.assign(compact_n, 0);  // dedupe super-seed fanout

  for (uint32_t v = 0; v < num_locals; ++v) {
    const uint32_t nv = new_id_[v];
    if (nv == kInf) continue;
    if (nv != PrrGraph::kRootLocal && dpr_[v] == 0) {
      // Live path v→root: replace all out-edges with one live shortcut.
      emit_edges_.emplace_back(
          nv, PrrGraph::PackEdge(PrrGraph::kRootLocal, false));
      continue;
    }
    if (nv == PrrGraph::kRootLocal) continue;  // root keeps no out-edges
    for (uint32_t s = csr_offsets_[v]; s < csr_offsets_[v + 1]; ++s) {
      const uint32_t packed = csr_edges_[s];
      const uint32_t to = packed >> 1;
      const uint32_t nt = new_id_[to];
      if (nt == kInf || ds_[to] == 0) continue;  // dropped or into X
      emit_edges_.emplace_back(nv, PrrGraph::PackEdge(nt, (packed & 1u) != 0));
    }
  }
  // Super-seed fanout: X → kept nodes. All such edges are boost edges
  // (a live edge out of X would have pulled its head into X).
  for (uint32_t v = 0; v < num_locals; ++v) {
    if (ds_[v] != 0) continue;
    for (uint32_t s = csr_offsets_[v]; s < csr_offsets_[v + 1]; ++s) {
      const uint32_t packed = csr_edges_[s];
      const uint32_t nt = new_id_[packed >> 1];
      if (nt == kInf) continue;
      KB_DCHECK(packed & 1u) << "live edge out of the super-seed set";
      if (!flag_[nt]) {
        flag_[nt] = 1;
        emit_edges_.emplace_back(PrrGraph::kSuperSeedLocal,
                                 PrrGraph::PackEdge(nt, true));
      }
    }
  }

  // ---- Compact out- and in-CSRs via counting sort (reused buffers) ----
  const size_t emit_count = emit_edges_.size();
  cadj_offsets_.assign(compact_n + 1, 0);
  cradj_offsets_.assign(compact_n + 1, 0);
  for (const auto& [u, packed] : emit_edges_) {
    ++cadj_offsets_[u + 1];
    ++cradj_offsets_[PrrGraph::EdgeNode(packed) + 1];
  }
  for (uint32_t u = 0; u < compact_n; ++u) {
    cadj_offsets_[u + 1] += cadj_offsets_[u];
    cradj_offsets_[u + 1] += cradj_offsets_[u];
  }
  cadj_edges_.resize(emit_count);
  cradj_edges_.resize(emit_count);
  cursor_.assign(cadj_offsets_.begin(), cadj_offsets_.end() - 1);
  for (const auto& [u, packed] : emit_edges_) {
    cadj_edges_[cursor_[u]++] = packed;
  }
  cursor_.assign(cradj_offsets_.begin(), cradj_offsets_.end() - 1);
  for (const auto& [u, packed] : emit_edges_) {
    cradj_edges_[cursor_[PrrGraph::EdgeNode(packed)]++] =
        PrrGraph::PackEdge(u, PrrGraph::EdgeBoost(packed));
  }

  // ---- Reachability cleanup: keep nodes on super-seed→root paths ----
  fwd_.assign(compact_n, 0);
  bwd_.assign(compact_n, 0);
  stack_.assign(1, PrrGraph::kSuperSeedLocal);
  fwd_[PrrGraph::kSuperSeedLocal] = 1;
  while (!stack_.empty()) {
    const uint32_t u = stack_.back();
    stack_.pop_back();
    for (uint32_t s = cadj_offsets_[u]; s < cadj_offsets_[u + 1]; ++s) {
      const uint32_t t = PrrGraph::EdgeNode(cadj_edges_[s]);
      if (!fwd_[t]) {
        fwd_[t] = 1;
        stack_.push_back(t);
      }
    }
  }
  stack_.assign(1, PrrGraph::kRootLocal);
  bwd_[PrrGraph::kRootLocal] = 1;
  while (!stack_.empty()) {
    const uint32_t u = stack_.back();
    stack_.pop_back();
    for (uint32_t s = cradj_offsets_[u]; s < cradj_offsets_[u + 1]; ++s) {
      const uint32_t t = PrrGraph::EdgeNode(cradj_edges_[s]);
      if (!bwd_[t]) {
        bwd_[t] = 1;
        stack_.push_back(t);
      }
    }
  }
  if (!fwd_[PrrGraph::kRootLocal]) {
    // Cannot happen per the ds+dpr≤k keep rule, but degrade gracefully.
    result->status = PrrStatus::kHopeless;
    return;
  }

  // ---- Renumber survivors and build the final CSR arrays in scratch ----
  final_id_.assign(compact_n, kInf);
  final_id_[PrrGraph::kSuperSeedLocal] = PrrGraph::kSuperSeedLocal;
  final_id_[PrrGraph::kRootLocal] = PrrGraph::kRootLocal;
  uint32_t final_n = 2;
  for (uint32_t u = 2; u < compact_n; ++u) {
    if (fwd_[u] && bwd_[u]) final_id_[u] = final_n++;
  }

  g_global_ids_.assign(final_n, kInvalidNode);
  g_global_ids_[PrrGraph::kRootLocal] = locals_[root_local];
  for (uint32_t v = 0; v < num_locals; ++v) {
    const uint32_t nv = new_id_[v];
    if (nv == kInf || nv < 2) continue;
    const uint32_t fv = final_id_[nv];
    if (fv != kInf) g_global_ids_[fv] = locals_[v];
  }

  // Compact ids survive in ascending order, so one pass over them emits the
  // final out-CSR directly — no per-node adjacency vectors.
  g_out_offsets_.assign(final_n + 1, 0);
  g_out_edges_.clear();
  for (uint32_t u = 0; u < compact_n; ++u) {
    const uint32_t fu = final_id_[u];
    if (fu == kInf) continue;
    for (uint32_t s = cadj_offsets_[u]; s < cadj_offsets_[u + 1]; ++s) {
      const uint32_t packed = cadj_edges_[s];
      const uint32_t ft = final_id_[PrrGraph::EdgeNode(packed)];
      if (ft == kInf) continue;
      g_out_edges_.push_back(
          PrrGraph::PackEdge(ft, PrrGraph::EdgeBoost(packed)));
    }
    g_out_offsets_[fu + 1] = static_cast<uint32_t>(g_out_edges_.size());
  }
  // In-CSR from the out-CSR.
  g_in_offsets_.assign(final_n + 1, 0);
  for (uint32_t packed : g_out_edges_) {
    ++g_in_offsets_[PrrGraph::EdgeNode(packed) + 1];
  }
  for (uint32_t u = 0; u < final_n; ++u) {
    g_in_offsets_[u + 1] += g_in_offsets_[u];
  }
  g_in_edges_.resize(g_out_edges_.size());
  cursor_.assign(g_in_offsets_.begin(), g_in_offsets_.end() - 1);
  for (uint32_t u = 0; u < final_n; ++u) {
    for (uint32_t s = g_out_offsets_[u]; s < g_out_offsets_[u + 1]; ++s) {
      const uint32_t packed = g_out_edges_[s];
      g_in_edges_[cursor_[PrrGraph::EdgeNode(packed)]++] =
          PrrGraph::PackEdge(u, PrrGraph::EdgeBoost(packed));
    }
  }

  // ---- Critical nodes: super-seed boost fanout into live-to-root nodes ----
  g_critical_.clear();
  for (uint32_t s = g_out_offsets_[PrrGraph::kSuperSeedLocal];
       s < g_out_offsets_[PrrGraph::kSuperSeedLocal + 1]; ++s) {
    const uint32_t packed = g_out_edges_[s];
    const uint32_t t = PrrGraph::EdgeNode(packed);
    // Map back: find the compact node; dpr was indexed by phase-I locals.
    // Instead of reverse maps, recompute: t is live-to-root iff it has a
    // live out-edge chain to root. We exploit the shortcut invariant: after
    // compression a node has dpr==0 iff its out-edges contain a live edge
    // to the root, or it IS the root.
    if (t == PrrGraph::kRootLocal) {
      g_critical_.push_back(t);
      continue;
    }
    bool live_to_root = false;
    for (uint32_t s2 = g_out_offsets_[t]; s2 < g_out_offsets_[t + 1]; ++s2) {
      const uint32_t p2 = g_out_edges_[s2];
      if (!PrrGraph::EdgeBoost(p2) &&
          PrrGraph::EdgeNode(p2) == PrrGraph::kRootLocal) {
        live_to_root = true;
        break;
      }
    }
    if (live_to_root) g_critical_.push_back(t);
  }

  result->critical_globals.clear();
  result->critical_globals.reserve(g_critical_.size());
  for (uint32_t c : g_critical_) {
    result->critical_globals.push_back(g_global_ids_[c]);
  }

  if (sink != nullptr) {
    result->store_id = sink->Append(g_global_ids_, g_out_offsets_,
                                    g_out_edges_, g_in_offsets_, g_in_edges_,
                                    g_critical_);
    return;
  }
  PrrGraph& g = result->graph;
  g.global_ids.assign(g_global_ids_.begin(), g_global_ids_.end());
  g.out_offsets.assign(g_out_offsets_.begin(), g_out_offsets_.end());
  g.out_edges.assign(g_out_edges_.begin(), g_out_edges_.end());
  g.in_offsets.assign(g_in_offsets_.begin(), g_in_offsets_.end());
  g.in_edges.assign(g_in_edges_.begin(), g_in_edges_.end());
  g.critical_locals.assign(g_critical_.begin(), g_critical_.end());
}

void PrrGenerator::ExtractCriticalLbOnly(uint32_t root_local,
                                         PrrGenResult* result) {
  const size_t num_locals = locals_.size();
  const size_t num_edges = edges_.size();

  BuildLocalOutCsr();

  // X: live-reachable from seeds (forward BFS over live edges only).
  ds_.assign(num_locals, kInf);
  stack_.clear();
  for (uint32_t v = 0; v < num_locals; ++v) {
    if (is_seed_[locals_[v]]) {
      ds_[v] = 0;
      stack_.push_back(v);
    }
  }
  while (!stack_.empty()) {
    uint32_t u = stack_.back();
    stack_.pop_back();
    for (uint32_t s = csr_offsets_[u]; s < csr_offsets_[u + 1]; ++s) {
      const uint32_t packed = csr_edges_[s];
      const uint32_t to = packed >> 1;
      if ((packed & 1u) || ds_[to] == 0) continue;
      ds_[to] = 0;
      stack_.push_back(to);
    }
  }

  // live-to-root: backward BFS over live edges (never enters X: a live
  // X→root chain would have made the sample "activated" in phase I).
  dpr_.assign(num_locals, kInf);
  dpr_[root_local] = 0;
  stack_.assign(1, root_local);
  while (!stack_.empty()) {
    uint32_t u = stack_.back();
    stack_.pop_back();
    for (uint32_t s = in_run_start_[u]; s < in_run_end_[u]; ++s) {
      const uint64_t e = edges_[s];
      const uint32_t from = LocalEdgeFrom(e);
      if ((e & 1u) || dpr_[from] == 0 || ds_[from] == 0) continue;
      dpr_[from] = 0;
      stack_.push_back(from);
    }
  }

  // Critical: v ∉ X, live path v→root, and some boost edge (u,v) with u ∈ X.
  flag_.assign(num_locals, 0);
  result->critical_globals.clear();
  for (size_t i = 0; i < num_edges; ++i) {
    const uint64_t e = edges_[i];
    if (!LocalEdgeBoost(e)) continue;
    const uint32_t from = LocalEdgeFrom(e);
    const uint32_t to = LocalEdgeTo(e);
    if (ds_[from] != 0) continue;
    if (ds_[to] == 0) continue;
    if (dpr_[to] != 0) continue;
    if (flag_[to]) continue;
    flag_[to] = 1;
    result->critical_globals.push_back(locals_[to]);
  }
}

void PrrEvaluator::PrepareMarks(uint32_t n) {
  if (fwd0_.size() < n) {
    fwd0_.resize(n);
    bwd0_.resize(n);
  }
}

bool PrrEvaluator::IsActivated(const PrrGraphView& g,
                               const uint8_t* boosted_global) {
  const uint32_t n = g.num_nodes();
  PrepareMarks(n);
  std::fill_n(fwd0_.begin(), n, 0);
  queue_.clear();
  fwd0_[PrrGraph::kSuperSeedLocal] = 1;
  queue_.push_back(PrrGraph::kSuperSeedLocal);
  while (!queue_.empty()) {
    uint32_t u = queue_.back();
    queue_.pop_back();
    for (uint32_t s = g.out_offsets[u]; s < g.out_offsets[u + 1]; ++s) {
      const uint32_t packed = g.out_edges[s];
      const uint32_t t = PrrGraph::EdgeNode(packed);
      if (fwd0_[t]) continue;
      if (PrrGraph::EdgeBoost(packed) && !boosted_global[g.global_ids[t]]) {
        continue;
      }
      fwd0_[t] = 1;
      if (t == PrrGraph::kRootLocal) return true;
      queue_.push_back(t);
    }
  }
  return false;
}

void PrrEvaluator::ComputeReach(const PrrGraphView& g,
                                const uint8_t* boosted_global) {
  const uint32_t n = g.num_nodes();
  PrepareMarks(n);
  // Forward 0-reach from super-seed.
  std::fill_n(fwd0_.begin(), n, 0);
  queue_.clear();
  fwd0_[PrrGraph::kSuperSeedLocal] = 1;
  queue_.push_back(PrrGraph::kSuperSeedLocal);
  while (!queue_.empty()) {
    uint32_t u = queue_.back();
    queue_.pop_back();
    for (uint32_t s = g.out_offsets[u]; s < g.out_offsets[u + 1]; ++s) {
      const uint32_t packed = g.out_edges[s];
      const uint32_t t = PrrGraph::EdgeNode(packed);
      if (fwd0_[t]) continue;
      if (PrrGraph::EdgeBoost(packed) && !boosted_global[g.global_ids[t]]) {
        continue;
      }
      fwd0_[t] = 1;
      queue_.push_back(t);
    }
  }
  // Backward 0-reach to root. Edge (u,v) has weight 0 iff live or v ∈ B.
  std::fill_n(bwd0_.begin(), n, 0);
  queue_.clear();
  bwd0_[PrrGraph::kRootLocal] = 1;
  queue_.push_back(PrrGraph::kRootLocal);
  while (!queue_.empty()) {
    uint32_t v = queue_.back();
    queue_.pop_back();
    const bool v_boosted = v != PrrGraph::kSuperSeedLocal &&
                           boosted_global[g.global_ids[v]] != 0;
    for (uint32_t s = g.in_offsets[v]; s < g.in_offsets[v + 1]; ++s) {
      const uint32_t packed = g.in_edges[s];
      const uint32_t u = PrrGraph::EdgeNode(packed);
      if (bwd0_[u]) continue;
      if (PrrGraph::EdgeBoost(packed) && !v_boosted) continue;
      bwd0_[u] = 1;
      queue_.push_back(u);
    }
  }
}

bool PrrEvaluator::CriticalNodes(const PrrGraphView& g,
                                 const uint8_t* boosted_global,
                                 std::vector<uint32_t>* out) {
  out->clear();
  ComputeReach(g, boosted_global);
  if (fwd0_[PrrGraph::kRootLocal]) return true;  // f_R(B) = 1
  const uint32_t n = g.num_nodes();
  // Candidates: the root (local 1) and intermediates (2..); never the
  // super-seed.
  for (uint32_t v = PrrGraph::kRootLocal; v < n; ++v) {
    if (boosted_global[g.global_ids[v]]) continue;  // already boosted
    if (!bwd0_[v]) continue;
    // Boosting v opens its boost in-edges; need one whose tail is 0-reached.
    for (uint32_t s = g.in_offsets[v]; s < g.in_offsets[v + 1]; ++s) {
      const uint32_t packed = g.in_edges[s];
      if (!PrrGraph::EdgeBoost(packed)) continue;
      if (fwd0_[PrrGraph::EdgeNode(packed)]) {
        out->push_back(v);
        break;
      }
    }
  }
  return false;
}

void PrrIncrementalEvaluator::InitEmptyReach(const PrrGraphView& g,
                                             uint64_t* fwd, uint64_t* bwd) {
  // Forward: live-reachable from the super-seed. Compressed PRR-graphs give
  // the super-seed only boost out-edges, so this loop normally never grows.
  SetBit(fwd, PrrGraph::kSuperSeedLocal);
  stack_.assign(1, PrrGraph::kSuperSeedLocal);
  while (!stack_.empty()) {
    const uint32_t u = stack_.back();
    stack_.pop_back();
    for (uint32_t s = g.out_offsets[u]; s < g.out_offsets[u + 1]; ++s) {
      const uint32_t packed = g.out_edges[s];
      if (PrrGraph::EdgeBoost(packed)) continue;
      const uint32_t t = PrrGraph::EdgeNode(packed);
      if (TestBit(fwd, t)) continue;
      SetBit(fwd, t);
      stack_.push_back(t);
    }
  }
  // Backward: live path to the root. Compression collapses these to direct
  // shortcut edges, so this is normally one scan of the root's in-edges.
  SetBit(bwd, PrrGraph::kRootLocal);
  stack_.assign(1, PrrGraph::kRootLocal);
  while (!stack_.empty()) {
    const uint32_t v = stack_.back();
    stack_.pop_back();
    for (uint32_t s = g.in_offsets[v]; s < g.in_offsets[v + 1]; ++s) {
      const uint32_t packed = g.in_edges[s];
      if (PrrGraph::EdgeBoost(packed)) continue;
      const uint32_t u = PrrGraph::EdgeNode(packed);
      if (TestBit(bwd, u)) continue;
      SetBit(bwd, u);
      stack_.push_back(u);
    }
  }
}

bool PrrIncrementalEvaluator::RelaxCommit(const PrrGraphView& g,
                                          const uint8_t* boosted_global,
                                          uint32_t pick, uint64_t* fwd,
                                          uint64_t* bwd) {
  newly_fwd_.clear();
  newly_bwd_.clear();

  // The only edges whose weight changed are the ones pointing into `pick`,
  // so all new forward reach flows through it: pick becomes fwd-reached iff
  // one of its (now 0-weight) boost in-edges has a fwd-reached tail. Live
  // in-edges cannot open anything — a fwd-reached live tail would have
  // reached pick already.
  if (!TestBit(fwd, pick)) {
    bool opened = false;
    for (uint32_t s = g.in_offsets[pick]; s < g.in_offsets[pick + 1]; ++s) {
      const uint32_t packed = g.in_edges[s];
      if (PrrGraph::EdgeBoost(packed) &&
          TestBit(fwd, PrrGraph::EdgeNode(packed))) {
        opened = true;
        break;
      }
    }
    if (opened) {
      SetBit(fwd, pick);
      if (pick == PrrGraph::kRootLocal) return true;
      newly_fwd_.push_back(pick);
      stack_.assign(1, pick);
      while (!stack_.empty()) {
        const uint32_t u = stack_.back();
        stack_.pop_back();
        for (uint32_t s = g.out_offsets[u]; s < g.out_offsets[u + 1]; ++s) {
          const uint32_t packed = g.out_edges[s];
          const uint32_t t = PrrGraph::EdgeNode(packed);
          if (TestBit(fwd, t)) continue;
          if (PrrGraph::EdgeBoost(packed) &&
              !boosted_global[g.global_ids[t]]) {
            continue;
          }
          SetBit(fwd, t);
          if (t == PrrGraph::kRootLocal) return true;  // activated; state dead
          newly_fwd_.push_back(t);
          stack_.push_back(t);
        }
      }
    }
  }

  // Backward: pick's boost in-edges became 0-weight, so their tails reach
  // the root iff pick does; cascade from the newly reached tails.
  if (TestBit(bwd, pick)) {
    stack_.clear();
    for (uint32_t s = g.in_offsets[pick]; s < g.in_offsets[pick + 1]; ++s) {
      const uint32_t packed = g.in_edges[s];
      if (!PrrGraph::EdgeBoost(packed)) continue;
      const uint32_t u = PrrGraph::EdgeNode(packed);
      if (TestBit(bwd, u)) continue;
      SetBit(bwd, u);
      newly_bwd_.push_back(u);
      stack_.push_back(u);
    }
    while (!stack_.empty()) {
      const uint32_t v = stack_.back();
      stack_.pop_back();
      const bool v_boosted = v != PrrGraph::kSuperSeedLocal &&
                             boosted_global[g.global_ids[v]] != 0;
      for (uint32_t s = g.in_offsets[v]; s < g.in_offsets[v + 1]; ++s) {
        const uint32_t packed = g.in_edges[s];
        const uint32_t u = PrrGraph::EdgeNode(packed);
        if (TestBit(bwd, u)) continue;
        if (PrrGraph::EdgeBoost(packed) && !v_boosted) continue;
        SetBit(bwd, u);
        newly_bwd_.push_back(u);
        stack_.push_back(u);
      }
    }
  }
  return false;
}

void PrrIncrementalEvaluator::AppendNewCriticalFrontier(
    const PrrGraphView& g, const uint8_t* boosted_global, const uint64_t* fwd,
    const uint64_t* bwd, uint64_t* crit, std::vector<uint32_t>* out) {
  // Criticality (bwd-reached + boost in-edge from a fwd-reached tail) only
  // involves monotone quantities, so new members must touch the frontier:
  // either their enabling tail just became fwd-reached, or they themselves
  // just became bwd-reached.
  for (const uint32_t u : newly_fwd_) {
    for (uint32_t s = g.out_offsets[u]; s < g.out_offsets[u + 1]; ++s) {
      const uint32_t packed = g.out_edges[s];
      if (!PrrGraph::EdgeBoost(packed)) continue;
      const uint32_t v = PrrGraph::EdgeNode(packed);
      if (!TestBit(bwd, v) || TestBit(crit, v)) continue;
      if (boosted_global[g.global_ids[v]]) continue;
      SetBit(crit, v);
      out->push_back(v);
    }
  }
  for (const uint32_t v : newly_bwd_) {
    if (v == PrrGraph::kSuperSeedLocal) continue;  // never a candidate
    if (TestBit(crit, v) || boosted_global[g.global_ids[v]]) continue;
    for (uint32_t s = g.in_offsets[v]; s < g.in_offsets[v + 1]; ++s) {
      const uint32_t packed = g.in_edges[s];
      if (!PrrGraph::EdgeBoost(packed)) continue;
      if (TestBit(fwd, PrrGraph::EdgeNode(packed))) {
        SetBit(crit, v);
        out->push_back(v);
        break;
      }
    }
  }
}

bool PrrIncrementalEvaluator::RebuildReach(const PrrGraphView& g,
                                           const uint8_t* boosted_global,
                                           uint64_t* fwd, uint64_t* bwd) {
  const uint32_t n = g.num_nodes();
  const uint32_t words = (n + 63) / 64;
  std::fill_n(fwd, words, 0);
  std::fill_n(bwd, words, 0);
  SetBit(fwd, PrrGraph::kSuperSeedLocal);
  stack_.assign(1, PrrGraph::kSuperSeedLocal);
  while (!stack_.empty()) {
    const uint32_t u = stack_.back();
    stack_.pop_back();
    for (uint32_t s = g.out_offsets[u]; s < g.out_offsets[u + 1]; ++s) {
      const uint32_t packed = g.out_edges[s];
      const uint32_t t = PrrGraph::EdgeNode(packed);
      if (TestBit(fwd, t)) continue;
      if (PrrGraph::EdgeBoost(packed) && !boosted_global[g.global_ids[t]]) {
        continue;
      }
      SetBit(fwd, t);
      stack_.push_back(t);
    }
  }
  SetBit(bwd, PrrGraph::kRootLocal);
  stack_.assign(1, PrrGraph::kRootLocal);
  while (!stack_.empty()) {
    const uint32_t v = stack_.back();
    stack_.pop_back();
    const bool v_boosted = v != PrrGraph::kSuperSeedLocal &&
                           boosted_global[g.global_ids[v]] != 0;
    for (uint32_t s = g.in_offsets[v]; s < g.in_offsets[v + 1]; ++s) {
      const uint32_t packed = g.in_edges[s];
      const uint32_t u = PrrGraph::EdgeNode(packed);
      if (TestBit(bwd, u)) continue;
      if (PrrGraph::EdgeBoost(packed) && !v_boosted) continue;
      SetBit(bwd, u);
      stack_.push_back(u);
    }
  }
  return TestBit(fwd, PrrGraph::kRootLocal);
}

}  // namespace kboost
