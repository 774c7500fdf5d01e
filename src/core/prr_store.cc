#include "src/core/prr_store.h"

#include <algorithm>
#include <atomic>

#include "src/util/logging.h"

namespace kboost {

namespace {

/// A fresh stamp for each store mutation; 0 stays the never-mutated store's.
uint64_t NextGeneration() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

template <typename T>
void AppendSpan(std::vector<T>& pool, std::span<const T> data) {
  pool.insert(pool.end(), data.begin(), data.end());
}

}  // namespace

size_t PrrStore::Append(std::span<const NodeId> global_ids,
                        std::span<const uint32_t> out_offsets,
                        std::span<const uint32_t> out_edges,
                        std::span<const uint32_t> in_offsets,
                        std::span<const uint32_t> in_edges,
                        std::span<const uint32_t> critical_locals) {
  KB_CHECK(!external_) << "Append into an external (snapshot-backed) store";
  KB_DCHECK(out_offsets.size() == global_ids.size() + 1);
  KB_DCHECK(in_offsets.size() == global_ids.size() + 1);
  KB_DCHECK(out_edges.size() == in_edges.size());
  KB_DCHECK(out_offsets.empty() || out_offsets.back() == out_edges.size());

  Meta meta;
  meta.node_begin = global_ids_.size();
  meta.edge_begin = out_edges_.size();
  meta.critical_begin = critical_.size();
  meta.num_nodes = static_cast<uint32_t>(global_ids.size());
  meta.num_critical = static_cast<uint32_t>(critical_locals.size());

  AppendSpan(global_ids_, global_ids);
  AppendSpan(out_offsets_, out_offsets);
  AppendSpan(in_offsets_, in_offsets);
  AppendSpan(out_edges_, out_edges);
  AppendSpan(in_edges_, in_edges);
  AppendSpan(critical_, critical_locals);

  meta_.push_back(meta);
  generation_ = NextGeneration();
  return meta_.size() - 1;
}

size_t PrrStore::Add(const PrrGraph& graph) {
  return Append(graph.global_ids, graph.out_offsets, graph.out_edges,
                graph.in_offsets, graph.in_edges, graph.critical_locals);
}

void PrrStore::AppendAll(const PrrStore& other) {
  KB_CHECK(!external_) << "Append into an external (snapshot-backed) store";
  if (other.meta_.empty()) return;
  const uint64_t node_base = global_ids_.size();
  const uint64_t edge_base = out_edges_.size();
  const uint64_t critical_base = critical_.size();
  for (const Meta& m : other.meta_) {
    meta_.push_back(Meta{m.node_begin + node_base, m.edge_begin + edge_base,
                         m.critical_begin + critical_base, m.num_nodes,
                         m.num_critical});
  }
  AppendSpan(global_ids_, other.raw_global_ids());
  AppendSpan(out_offsets_, other.raw_out_offsets());
  AppendSpan(in_offsets_, other.raw_in_offsets());
  AppendSpan(out_edges_, other.raw_out_edges());
  AppendSpan(in_edges_, other.raw_in_edges());
  AppendSpan(critical_, other.raw_critical());
  generation_ = NextGeneration();
}

PrrGraphView PrrStore::View(size_t id) const {
  KB_DCHECK(id < meta_.size());
  const Meta& m = meta_[id];
  PrrGraphView view;
  view.global_ids = raw_global_ids().data() + m.node_begin;
  view.out_offsets = raw_out_offsets().data() + m.node_begin + id;
  view.in_offsets = raw_in_offsets().data() + m.node_begin + id;
  view.out_edges = raw_out_edges().data() + m.edge_begin;
  view.in_edges = raw_in_edges().data() + m.edge_begin;
  view.critical_locals = raw_critical().data() + m.critical_begin;
  view.num_nodes_count = m.num_nodes;
  view.num_critical_count = m.num_critical;
  return view;
}

PrrGraph PrrStore::ToPrrGraph(size_t id) const {
  const PrrGraphView v = View(id);
  PrrGraph g;
  g.global_ids.assign(v.global_ids, v.global_ids + v.num_nodes());
  g.out_offsets.assign(v.out_offsets, v.out_offsets + v.num_nodes() + 1);
  g.in_offsets.assign(v.in_offsets, v.in_offsets + v.num_nodes() + 1);
  g.out_edges.assign(v.out_edges, v.out_edges + v.num_edges());
  g.in_edges.assign(v.in_edges, v.in_edges + v.num_edges());
  g.critical_locals.assign(v.critical_locals,
                           v.critical_locals + v.num_critical_count);
  return g;
}

size_t PrrStore::MemoryBytes() const {
  // For an external store this counts the mapped section bytes the arena
  // reads through — the pool's working set, whoever owns the pages.
  return meta_.size() * sizeof(Meta) +
         raw_global_ids().size() * sizeof(NodeId) +
         (raw_out_offsets().size() + raw_in_offsets().size() +
          raw_out_edges().size() + raw_in_edges().size() +
          raw_critical().size()) *
             sizeof(uint32_t);
}

size_t PrrStore::AllocatedBytes() const {
  return meta_.capacity() * sizeof(Meta) +
         global_ids_.capacity() * sizeof(NodeId) +
         (out_offsets_.capacity() + in_offsets_.capacity() +
          out_edges_.capacity() + in_edges_.capacity() +
          critical_.capacity()) *
             sizeof(uint32_t);
}

Status PrrStore::BuildMetaFromSizes(std::span<const uint32_t> num_nodes,
                                    std::span<const uint32_t> num_critical,
                                    uint64_t* total_edges,
                                    uint64_t* total_critical) {
  const uint64_t num_graphs = num_nodes.size();
  if (num_critical.size() != num_graphs) {
    return Status::InvalidArgument("arena size tables disagree: " +
                                   std::to_string(num_graphs) + " vs " +
                                   std::to_string(num_critical.size()) +
                                   " graphs");
  }
  uint64_t total_nodes = 0;
  for (size_t g = 0; g < num_graphs; ++g) total_nodes += num_nodes[g];
  const std::span<const NodeId> ids = raw_global_ids();
  if (ids.size() != total_nodes ||
      raw_out_offsets().size() != total_nodes + num_graphs ||
      raw_in_offsets().size() != total_nodes + num_graphs) {
    return Status::InvalidArgument(
        "arena node/offset sections disagree with the size table");
  }
  const uint32_t* oo = raw_out_offsets().data();
  const uint32_t* io = raw_in_offsets().data();

  // Rebuild the meta table by prefix sums over the per-graph sizes, checking
  // the offset pools are graph-relative, monotone and mutually consistent.
  // This is the dominant cost of binding an arena over an mmap'd snapshot
  // (the whole file is otherwise untouched), so the per-element monotonicity
  // check is NOT done per graph. Pass 1 touches each graph's boundary
  // entries only (start offsets zero, out/in ends equal) while building the
  // prefix sums; pass 2 counts non-monotone adjacent pairs across the whole
  // flat pool in one vectorizable sweep. With every graph's start pinned to
  // 0 by pass 1, the only legitimate descents are the boundary pairs
  // (end_g > 0 followed by the next graph's 0), whose count pass 1 knows —
  // any in-graph descent pushes the total strictly above it, so equality is
  // exactly per-graph monotonicity.
  meta_.clear();
  meta_.reserve(num_graphs);  // push_back below: no zero-fill double write
  uint64_t node_begin = 0, edge_begin = 0, critical_begin = 0;
  uint64_t expected_descents = 0;
  bool bounds_ok = true;
  for (size_t g = 0; g < num_graphs; ++g) {
    const uint32_t n = num_nodes[g];
    const uint32_t criticals = num_critical[g];
    meta_.push_back(Meta{node_begin, edge_begin, critical_begin, n, criticals});
    const uint64_t off = node_begin + g;
    const uint32_t edges = oo[off + n];
    bounds_ok &= oo[off] == 0 && io[off] == 0 && edges == io[off + n];
    expected_descents += edges > 0;
    node_begin += n;
    edge_begin += edges;
    critical_begin += criticals;
  }
  // The last graph's end has no successor pair; it never descends.
  if (num_graphs > 0 && oo[node_begin + num_graphs - 1] > 0) {
    --expected_descents;
  }
  uint64_t oo_descents = 0, io_descents = 0;
  const uint64_t last = num_graphs > 0 ? total_nodes + num_graphs - 1 : 0;
  for (uint64_t j = 0; j < last; ++j) {
    oo_descents += oo[j] > oo[j + 1];
    io_descents += io[j] > io[j + 1];
  }
  if (!bounds_ok || oo_descents != expected_descents ||
      io_descents != expected_descents) {
    // Error path only: rescan per graph for a precise message.
    size_t bad = 0;
    for (size_t g = 0; g < num_graphs; ++g) {
      const Meta& m = meta_[g];
      const uint64_t off = m.node_begin + g;
      bool ok = oo[off] == 0 && io[off] == 0 &&
                oo[off + m.num_nodes] == io[off + m.num_nodes];
      for (uint32_t v = 0; v < m.num_nodes; ++v) {
        ok &= oo[off + v] <= oo[off + v + 1] && io[off + v] <= io[off + v + 1];
      }
      if (!ok) {
        bad = g;
        break;
      }
    }
    meta_.clear();
    return Status::InvalidArgument("malformed offsets in arena graph " +
                                   std::to_string(bad));
  }
  generation_ = NextGeneration();
  *total_edges = edge_begin;
  *total_critical = critical_begin;
  return Status::Ok();
}

Status PrrStore::ValidateDeep() const {
  // Every packed edge endpoint and critical id must be a valid local node,
  // and every super-seed out-edge must be a boost edge.
  const std::span<const uint32_t> oo = raw_out_offsets();
  const std::span<const uint32_t> oe = raw_out_edges();
  const std::span<const uint32_t> ie = raw_in_edges();
  const std::span<const uint32_t> cr = raw_critical();
  for (size_t g = 0; g < meta_.size(); ++g) {
    const Meta& m = meta_[g];
    const uint64_t edges = oo[m.node_begin + g + m.num_nodes];
    for (uint64_t e = 0; e < edges; ++e) {
      if (PrrGraph::EdgeNode(oe[m.edge_begin + e]) >= m.num_nodes ||
          PrrGraph::EdgeNode(ie[m.edge_begin + e]) >= m.num_nodes) {
        return Status::OutOfRange("edge endpoint out of range in arena graph " +
                                  std::to_string(g));
      }
    }
    // A live super-seed edge would make f_R(∅) = 1: an activated sample,
    // which sampling never stores and which every Δ̂ path assumes absent.
    if (m.num_nodes > 0) {
      const uint64_t ss = m.node_begin + g + PrrGraph::kSuperSeedLocal;
      for (uint64_t e = oo[ss]; e < oo[ss + 1]; ++e) {
        if (!PrrGraph::EdgeBoost(oe[m.edge_begin + e])) {
          return Status::InvalidArgument(
              "live super-seed out-edge in arena graph " + std::to_string(g));
        }
      }
    }
    for (uint32_t c = 0; c < m.num_critical; ++c) {
      // The super-seed slot (local 0) is excluded as well as out-of-range
      // ids: its global id is kInvalidNode by construction, so a critical
      // entry pointing at it would smuggle an unvalidated id past the
      // global-id range check and into the coverage index.
      const uint32_t id = cr[m.critical_begin + c];
      if (id == PrrGraph::kSuperSeedLocal || id >= m.num_nodes) {
        return Status::OutOfRange("critical id out of range in arena graph " +
                                  std::to_string(g));
      }
    }
  }
  return Status::Ok();
}

Status PrrStore::AttachExternal(const ArenaSections& sections,
                                bool deep_validate) {
  KB_CHECK(meta_.empty()) << "AttachExternal to a non-empty store";
  external_ = true;
  ext_global_ids_ = sections.global_ids;
  ext_out_offsets_ = sections.out_offsets;
  ext_in_offsets_ = sections.in_offsets;
  ext_out_edges_ = sections.out_edges;
  ext_in_edges_ = sections.in_edges;
  ext_critical_ = sections.critical;
  uint64_t edge_total = 0, critical_total = 0;
  Status status = BuildMetaFromSizes(sections.num_nodes, sections.num_critical,
                                     &edge_total, &critical_total);
  if (status.ok() && (ext_out_edges_.size() != edge_total ||
                      ext_in_edges_.size() != edge_total ||
                      ext_critical_.size() != critical_total)) {
    status = Status::InvalidArgument(
        "arena edge/critical sections disagree with the offset pools");
  }
  if (status.ok() && deep_validate) status = ValidateDeep();
  if (!status.ok()) Clear();
  return status;
}

void PrrStore::Clear() {
  meta_.clear();
  global_ids_.clear();
  out_offsets_.clear();
  in_offsets_.clear();
  out_edges_.clear();
  in_edges_.clear();
  critical_.clear();
  external_ = false;
  ext_global_ids_ = {};
  ext_out_offsets_ = {};
  ext_in_offsets_ = {};
  ext_out_edges_ = {};
  ext_in_edges_ = {};
  ext_critical_ = {};
  generation_ = NextGeneration();
}

void PrrEvalState::Attach(const PrrStore& store) {
  const size_t num_graphs = store.num_graphs();
  if (generation_ != store.generation()) {
    generation_ = store.generation();
    slots_.resize(num_graphs);
    uint64_t begin = 0;
    for (size_t g = 0; g < num_graphs; ++g) {
      const uint32_t n = store.num_nodes(g);
      const uint32_t wpb = (n + 63) / 64;
      const bool has_reach = n <= kMaxStateNodes;
      slots_[g] = Slot{begin, wpb, has_reach};
      begin += (has_reach ? 3ull : 1ull) * wpb;
    }
    words_.resize(begin);
  }
  status_.assign(num_graphs, GraphStatus::kUntouched);
}

void PrrEvalState::Touch(size_t g) {
  const Slot& slot = slots_[g];
  std::fill_n(words_.data() + slot.begin,
              (slot.has_reach ? 3 : 1) * size_t{slot.words_per_bitmap}, 0);
  status_[g] = GraphStatus::kLive;
}

}  // namespace kboost
