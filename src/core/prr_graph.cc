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
      slots_(graph.num_nodes()) {
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

void PrrGenerator::GrowLocals(size_t need) {
  const size_t size = std::max(need, 2 * locals_.size());
  locals_.resize(size);
  dist_.resize(size);
  in_runs_.resize(size);
  stack_.resize(size);
  fifo_.resize(size);
  next_.resize(size);
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
    std::fill(slots_.begin(), slots_.end(), NodeSlot{});
    stamp_ = 1;
  }
  seed_locals_.clear();
  if (locals_.empty()) GrowLocals(1);

  // LB mode only needs paths with at most one live-upon-boost edge.
  const uint32_t prune =
      lb_only ? static_cast<uint32_t>(std::min<size_t>(k, 1))
              : static_cast<uint32_t>(k);
  const uint32_t stamp = stamp_;
  NodeSlot* const slots = slots_.data();
  const uint8_t* const is_seed = is_seed_.data();
  uint32_t* const pass = pass_buf_.data();
  // The scan state lives in locals so the compiler keeps it in registers:
  // the buffers below are re-fetched only when one of them grows, which is
  // checked once per popped node for the most it can add (one local, one
  // edge and one queue entry per survivor).
  NodeId* locals = locals_.data();
  uint32_t* dist = dist_.data();
  InRun* in_runs = in_runs_.data();
  uint32_t* stack = stack_.data();
  uint32_t* fifo = fifo_.data();
  uint32_t* next = next_.data();
  uint64_t* edges = edges_.data();
  uint32_t num_locals = 1;
  uint32_t num_edges = 0;
  uint32_t stack_size = 1;
  uint32_t fifo_head = 0, fifo_size = 0, next_size = 0;
  uint32_t level = 0;

  const uint32_t root_local = 0;
  slots[root] = {stamp, root_local};
  locals[root_local] = root;
  dist[root_local] = 0;
  stack[0] = root_local;
  // Local copy keeps the 4-word RNG state in registers across the scan;
  // written back before every return.
  Rng local_rng = rng;

  // Hot loop: one RNG draw per examined in-edge, in BFS pop order. The pop
  // order is exactly a 0/1-BFS deque's: the stack top first (live
  // in-neighbours, pushed last), then the current level's fifo in push
  // order; when both run dry the next level becomes the fifo. An entry
  // left in the fifo by a node that a live edge later pulled a level
  // closer is stale and skipped. Each popped node is scanned in two passes
  // to keep the pipeline full: the draw pass draws every in-edge
  // branchlessly and collects survivors (GraphBuilder guarantees
  // p <= p_boost, so one compare against p_boost classifies blocked edges
  // and `x >= p` recovers the boost bit); the survivor pass does the BFS
  // bookkeeping only for the ~p_boost fraction that passed. Each sample
  // has its own Rng, so drawing a popped node's edges eagerly — even when
  // an activation early-return follows — cannot perturb any other sample.
  size_t edges_examined = 0;
  for (;;) {
    uint32_t u_local;
    if (stack_size != 0) {
      u_local = stack[--stack_size];
    } else if (fifo_head != fifo_size) {
      u_local = fifo[fifo_head++];
      if (dist[u_local] != level) continue;  // stale entry
    } else if (next_size != 0) {
      std::swap(fifo_, next_);
      std::swap(fifo, next);
      fifo_size = next_size;
      fifo_head = 0;
      next_size = 0;
      ++level;
      continue;
    } else {
      break;
    }
    const NodeId u_global = locals[u_local];
    const std::span<const DirectedGraph::InEdge> in_edges =
        graph_.InEdges(u_global);
    const std::span<const DirectedGraph::InThreshold> thresholds =
        graph_.InThresholds(u_global);
    const size_t degree = in_edges.size();
    edges_examined += degree;
    uint32_t passed = 0;
    for (size_t i = 0; i < degree; ++i) {
      const uint64_t x = local_rng.NextU64() >> 11;  // 53-bit draw
      const DirectedGraph::InThreshold& t = thresholds[i];
      // Survivors carry (source << 1) | boost; the survivor pass never
      // touches the adjacency arrays again.
      pass[passed] = (in_edges[i].from << 1) | static_cast<uint32_t>(x >= t.p);
      passed += x < t.p_boost;
    }
    if (num_locals + passed > locals_.size()) {
      GrowLocals(num_locals + passed);
      locals = locals_.data();
      dist = dist_.data();
      in_runs = in_runs_.data();
      stack = stack_.data();
      fifo = fifo_.data();
      next = next_.data();
    }
    if (num_edges + passed > edges_.size()) {
      edges_.resize(std::max<size_t>(num_edges + passed, 2 * edges_.size()));
      edges = edges_.data();
    }
    const uint32_t run_begin = num_edges;
    for (uint32_t s = 0; s < passed; ++s) {
      const uint32_t rec = pass[s];
      const uint32_t boost = rec & 1u;
      const uint32_t dvr = level + boost;
      if (dvr > prune) continue;  // pruning (Line 11)
      const NodeId from = rec >> 1;
      NodeSlot& slot = slots[from];
      uint32_t v_local;
      bool first_reach;
      if (slot.stamp != stamp) {  // first touch: a new local at distance dvr
        v_local = num_locals++;
        slot = {stamp, v_local};
        locals[v_local] = from;
        dist[v_local] = dvr;
        first_reach = true;
        edges[num_edges++] = PackLocalEdge(v_local, u_local, boost != 0);
      } else {
        v_local = slot.local;
        edges[num_edges++] = PackLocalEdge(v_local, u_local, boost != 0);
        if (dvr >= dist[v_local]) continue;
        dist[v_local] = dvr;
        first_reach = false;
      }
      if (is_seed[from]) [[unlikely]] {
        if (dvr == 0) {
          result.status = PrrStatus::kActivated;
          result.edges_examined = edges_examined;
          rng = local_rng;
          return result;
        }
        // Seeds are never expanded further.
        if (first_reach) seed_locals_.push_back(v_local);
        continue;
      }
      // Branch-free push: store on both queues, keep it on the one the edge
      // type picks (both have room for `passed` more entries).
      stack[stack_size] = v_local;
      next[next_size] = v_local;
      stack_size += boost ^ 1u;
      next_size += boost;
    }
    in_runs[u_local] = {run_begin, num_edges};
  }
  result.edges_examined = edges_examined;
  rng = local_rng;
  num_locals_ = num_locals;
  num_edges_ = num_edges;

  if (seed_locals_.empty()) {
    result.status = PrrStatus::kHopeless;
    return result;
  }
  result.status = PrrStatus::kBoostable;
  result.uncompressed_edges = num_edges;

  if (lb_only) {
    ExtractCriticalLbOnly(root_local, &result);
  } else {
    Compress(root_local, k, &result, sink);
  }
  return result;
}

void PrrGenerator::ResetSuperSeedSet() {
  x_state_.assign(num_locals_, kUnknown);
  for (const uint32_t v : seed_locals_) x_state_[v] = kInX;
}

bool PrrGenerator::InSuperSeedSet(uint32_t v) {
  if (x_state_[v] == kUnknown) ClassifyFrom(v);
  return x_state_[v] == kInX;
}

void PrrGenerator::ClassifyFrom(uint32_t v) {
  // DFS backward over live in-edges, stopping at the first node already
  // known to be in X. Every live edge scanned into an explored node from an
  // explored or unexplored tail is recorded as (tail << 32) | head.
  explored_.assign(1, v);
  live_pairs_.clear();
  frames_.assign(1, {v, in_runs_[v].begin});
  x_state_[v] = kExploring;
  bool found = false;
  while (!frames_.empty() && !found) {
    auto& [z, cursor] = frames_.back();
    const uint32_t end = in_runs_[z].end;
    uint32_t next = kInf;
    while (cursor < end) {
      const uint64_t e = edges_[cursor++];
      if (LocalEdgeBoost(e)) continue;
      const uint32_t tail = LocalEdgeFrom(e);
      const XState state = x_state_[tail];
      if (state == kNotInX) continue;
      if (state == kInX) {
        found = true;
        break;
      }
      live_pairs_.push_back(SortKey(tail, z));
      if (state == kUnknown) {
        next = tail;
        break;
      }
    }
    if (found) break;
    if (next == kInf) {
      frames_.pop_back();  // every live in-edge of z is recorded
      continue;
    }
    x_state_[next] = kExploring;
    explored_.push_back(next);
    frames_.push_back({next, in_runs_[next].begin});
  }
  if (found) {
    // The DFS path is a live chain out of X. A finished node had all its
    // live in-edges recorded, so it is in X exactly when a recorded chain
    // reaches it from the path. The frames serve as the worklist.
    std::sort(live_pairs_.begin(), live_pairs_.end());
    for (const auto& [z, cursor] : frames_) x_state_[z] = kInX;
    while (!frames_.empty()) {
      const uint32_t w = frames_.back().first;
      frames_.pop_back();
      for (auto it = std::lower_bound(live_pairs_.begin(), live_pairs_.end(),
                                      SortKey(w, 0));
           it != live_pairs_.end() && (*it >> 32) == w; ++it) {
        const uint32_t z = static_cast<uint32_t>(*it);
        if (x_state_[z] != kExploring) continue;
        x_state_[z] = kInX;
        frames_.push_back({z, 0});
      }
    }
  }
  for (const uint32_t u : explored_) {
    if (x_state_[u] == kExploring) x_state_[u] = kNotInX;
  }
}

void PrrGenerator::Compress(uint32_t root_local, size_t k,
                            PrrGenResult* result, PrrStore* sink) {
  const uint32_t num_locals = num_locals_;
  ResetSuperSeedSet();

  // ---- Backward 0/1-BFS from root restricted to nodes outside X ----
  // (paths through X would pass "through the super-seed"). It reaches the
  // set D of nodes with dpr_ ≤ k, scanning each one's in-edges once. A live
  // in-edge of a node outside X never comes from X, so only boost in-edges
  // ask whether their tail is in X; those that do are the super-seed
  // fan-out candidates. The rest are D's candidate internal edges.
  dpr_.assign(num_locals, kInf);
  reached_.clear();
  internal_.clear();
  fanout_.clear();
  next_level_.clear();
  dpr_[root_local] = 0;
  level_.assign(1, root_local);
  for (uint32_t level = 0; !level_.empty(); ++level) {
    while (!level_.empty()) {
      const uint32_t u = level_.back();
      level_.pop_back();
      if (dpr_[u] != level) continue;  // pulled a level closer since queued
      const InRun run = in_runs_[u];
      for (uint32_t s = run.begin; s < run.end; ++s) {
        const uint64_t e = edges_[s];
        const uint32_t v = LocalEdgeFrom(e);
        const uint32_t boost = static_cast<uint32_t>(e & 1u);
        const uint64_t key = SortKey(v, s);
        if (boost && InSuperSeedSet(v)) {
          fanout_.push_back(key);
          continue;
        }
        internal_.push_back(key);
        const uint32_t dv = level + boost;
        if (dv > k || dv >= dpr_[v]) continue;
        if (dpr_[v] == kInf) reached_.push_back(v);
        dpr_[v] = dv;
        (boost ? next_level_ : level_).push_back(v);
      }
    }
    level_.swap(next_level_);
  }

  // D's out-adjacency: its internal edges grouped by tail, each group in
  // collection (edge-slot) order, the order kept out-edges are emitted in.
  std::erase_if(internal_,
                [this](uint64_t key) { return dpr_[key >> 32] == kInf; });
  std::sort(internal_.begin(), internal_.end());
  out_runs_.resize(num_locals);
  out_runs_[root_local] = {0, 0};
  for (const uint32_t v : reached_) out_runs_[v] = {0, 0};
  for (uint32_t i = 0; i < internal_.size();) {
    const uint32_t v = static_cast<uint32_t>(internal_[i] >> 32);
    const uint32_t begin = i;
    while (i < internal_.size() && (internal_[i] >> 32) == v) ++i;
    out_runs_[v] = {begin, i};
  }

  // ---- Forward 0/1-BFS inside D: ds_[v] = min #boosts to activate v ----
  // Levels start at 1 from the heads of X's boost edges. A shortest seed→v
  // path leaves X for the last time into a node whose whole remaining path
  // reaches the root through v, so for every v ∈ D with ds + dpr ≤ k that
  // path runs inside D: distances inside D decide the keep set exactly as
  // a BFS over the whole subgraph would.
  ds_.assign(num_locals, kInf);
  level_.clear();
  for (const uint64_t key : fanout_) {
    const uint32_t u = LocalEdgeTo(KeyedEdge(key));
    if (ds_[u] == kInf) {
      ds_[u] = 1;
      level_.push_back(u);
    }
  }
  for (uint32_t level = 1; !level_.empty(); ++level) {
    while (!level_.empty()) {
      const uint32_t u = level_.back();
      level_.pop_back();
      if (ds_[u] != level) continue;
      const InRun run = out_runs_[u];
      for (uint32_t i = run.begin; i < run.end; ++i) {
        const uint64_t e = KeyedEdge(internal_[i]);
        const uint32_t to = LocalEdgeTo(e);
        const uint32_t boost = static_cast<uint32_t>(e & 1u);
        const uint32_t dv = level + boost;
        if (dv > k || dv >= ds_[to]) continue;
        ds_[to] = dv;
        (boost ? next_level_ : level_).push_back(to);
      }
    }
    level_.swap(next_level_);
  }

  // ---- Keep set: every path through v must fit in the budget ----
  // new_id_: 0 = super-seed, 1 = root, 2.. = kept intermediates, numbered
  // in ascending local id. Only nodes the backward BFS reached can qualify.
  std::sort(reached_.begin(), reached_.end());
  new_id_.assign(num_locals, kInf);
  new_id_[root_local] = PrrGraph::kRootLocal;
  kept_.clear();
  uint32_t next_id = 2;
  for (const uint32_t v : reached_) {
    if (ds_[v] == kInf) continue;
    if (static_cast<size_t>(ds_[v]) + dpr_[v] > k) continue;
    new_id_[v] = next_id++;
    kept_.push_back(v);
  }
  const uint32_t compact_n = next_id;

  // ---- Emit compressed edges as flat (node, packed) pairs ----
  emit_edges_.clear();
  for (const uint32_t v : kept_) {
    const uint32_t nv = new_id_[v];
    if (dpr_[v] == 0) {
      // Live path v→root: replace all out-edges with one live shortcut.
      emit_edges_.emplace_back(
          nv, PrrGraph::PackEdge(PrrGraph::kRootLocal, false));
      continue;
    }
    const InRun run = out_runs_[v];
    for (uint32_t i = run.begin; i < run.end; ++i) {
      const uint64_t e = KeyedEdge(internal_[i]);
      const uint32_t nt = new_id_[LocalEdgeTo(e)];
      if (nt == kInf) continue;  // dropped
      emit_edges_.emplace_back(nv, PrrGraph::PackEdge(nt, LocalEdgeBoost(e)));
    }
  }
  // Super-seed fanout: X → kept nodes, all boost edges (a live edge out of
  // X would have pulled its head into X), emitted by ascending (X tail,
  // edge slot) and deduplicated by head.
  std::sort(fanout_.begin(), fanout_.end());
  flag_.assign(compact_n, 0);
  for (const uint64_t key : fanout_) {
    const uint32_t nt = new_id_[LocalEdgeTo(KeyedEdge(key))];
    if (nt == kInf || flag_[nt]) continue;
    flag_[nt] = 1;
    emit_edges_.emplace_back(PrrGraph::kSuperSeedLocal,
                             PrrGraph::PackEdge(nt, true));
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
  level_.assign(1, PrrGraph::kSuperSeedLocal);
  fwd_[PrrGraph::kSuperSeedLocal] = 1;
  while (!level_.empty()) {
    const uint32_t u = level_.back();
    level_.pop_back();
    for (uint32_t s = cadj_offsets_[u]; s < cadj_offsets_[u + 1]; ++s) {
      const uint32_t t = PrrGraph::EdgeNode(cadj_edges_[s]);
      if (!fwd_[t]) {
        fwd_[t] = 1;
        level_.push_back(t);
      }
    }
  }
  level_.assign(1, PrrGraph::kRootLocal);
  bwd_[PrrGraph::kRootLocal] = 1;
  while (!level_.empty()) {
    const uint32_t u = level_.back();
    level_.pop_back();
    for (uint32_t s = cradj_offsets_[u]; s < cradj_offsets_[u + 1]; ++s) {
      const uint32_t t = PrrGraph::EdgeNode(cradj_edges_[s]);
      if (!bwd_[t]) {
        bwd_[t] = 1;
        level_.push_back(t);
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
  for (const uint32_t v : kept_) {
    const uint32_t fv = final_id_[new_id_[v]];
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
  ResetSuperSeedSet();

  // Live-to-root set L: backward DFS over live edges. It never meets X: a
  // live X→root chain would have made the sample "activated" in phase I.
  dpr_.assign(num_locals_, kInf);
  dpr_[root_local] = 0;
  reached_.assign(1, root_local);
  level_.assign(1, root_local);
  while (!level_.empty()) {
    const uint32_t u = level_.back();
    level_.pop_back();
    const InRun run = in_runs_[u];
    for (uint32_t s = run.begin; s < run.end; ++s) {
      const uint64_t e = edges_[s];
      const uint32_t from = LocalEdgeFrom(e);
      if (LocalEdgeBoost(e) || dpr_[from] == 0) continue;
      dpr_[from] = 0;
      reached_.push_back(from);
      level_.push_back(from);
    }
  }

  // Critical: v ∈ L with a boost in-edge (u,v) from u ∈ X, listed in the
  // order their in-edges were collected.
  std::sort(reached_.begin(), reached_.end(), [this](uint32_t a, uint32_t b) {
    return in_runs_[a].begin < in_runs_[b].begin;
  });
  result->critical_globals.clear();
  for (const uint32_t v : reached_) {
    const InRun run = in_runs_[v];
    for (uint32_t s = run.begin; s < run.end; ++s) {
      const uint64_t e = edges_[s];
      if (LocalEdgeBoost(e) && InSuperSeedSet(LocalEdgeFrom(e))) {
        result->critical_globals.push_back(locals_[v]);
        break;
      }
    }
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
