// The dynamic-mix workload: the §7.4.2 request stream (45% add edge, 45%
// delete edge, 5% add vertex, 5% delete vertex) applied on one thread to
// YT, WK and LJ, each loaded into both the HyVE direct-indexed
// DynamicGraphStore and the GraphR hashed 8x8 store (bench_fig20's two
// configurations).
//
// generate_requests() also emits requests the §5 semantics must refuse:
// deletes of edges its stride walk already deleted, and second deletes of
// a vertex. Set-up replays the stream through a reference multiset model
// and drops those, so every request the stores see must be accepted and a
// refusal is a failure. The dropped share is reported as
// dynamic.raw_refused_frac.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "core/config.hpp"
#include "core/machine.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/requests.hpp"

namespace perfbench {
namespace {

using hyve::DynamicGraphOptions;
using hyve::DynamicGraphStore;
using hyve::DynamicRequest;
using hyve::DynamicRequestType;
using hyve::Edge;
using hyve::Graph;

constexpr std::uint64_t kRequestsPerGraph = 400000;
constexpr std::uint64_t kFig20RequestSeed = 0xD15C0 + 7;  // bench_fig20's

std::uint64_t pack(Edge e) {
  return (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
}

// Order-independent multiset digest: the sum of a 64-bit mix per edge.
std::uint64_t edge_hash(Edge e) {
  std::uint64_t z = pack(e) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t multiset_hash(const std::vector<Edge>& edges) {
  std::uint64_t h = 0;
  for (const Edge& e : edges) h += edge_hash(e);
  return h;
}

// One graph's inputs and the state the reference model predicts after
// the whole stream.
struct GraphInput {
  std::string name;
  Graph graph;
  std::vector<DynamicRequest> stream;
  std::uint64_t raw_refused = 0;
  std::uint64_t final_edges = 0;
  std::uint64_t final_vertices = 0;
  std::uint64_t final_hash = 0;
  DynamicGraphOptions hyve_options;
  DynamicGraphOptions graphr_options;
};

// Keeps the requests the §5 semantics accept, in order, and records the
// final edge multiset they produce.
void filter_stream(GraphInput& in, const std::vector<DynamicRequest>& raw) {
  std::unordered_map<std::uint64_t, std::int64_t> count;
  count.reserve(raw.size());
  for (const DynamicRequest& q : raw)
    if (q.type == DynamicRequestType::kAddEdge ||
        q.type == DynamicRequestType::kDeleteEdge)
      count.emplace(pack(q.edge), 0);
  for (const Edge& e : in.graph.edges()) {
    const auto it = count.find(pack(e));
    if (it != count.end()) ++it->second;
  }
  std::vector<char> deleted(in.graph.num_vertices(), 0);
  in.final_edges = in.graph.num_edges();
  in.final_hash = multiset_hash(in.graph.edges());
  in.stream.reserve(raw.size());
  for (const DynamicRequest& q : raw) {
    bool accept = true;
    switch (q.type) {
      case DynamicRequestType::kAddEdge:
        accept = q.edge.src < deleted.size() && q.edge.dst < deleted.size();
        if (accept) {
          ++count[pack(q.edge)];
          ++in.final_edges;
          in.final_hash += edge_hash(q.edge);
        }
        break;
      case DynamicRequestType::kDeleteEdge: {
        std::int64_t& c = count[pack(q.edge)];
        accept = c > 0;
        if (accept) {
          --c;
          --in.final_edges;
          in.final_hash -= edge_hash(q.edge);
        }
        break;
      }
      case DynamicRequestType::kAddVertex:
        deleted.push_back(0);
        break;
      case DynamicRequestType::kDeleteVertex:
        accept = q.vertex < deleted.size() && deleted[q.vertex] == 0;
        if (accept) deleted[q.vertex] = 1;
        break;
    }
    if (accept) {
      in.stream.push_back(q);
    } else {
      ++in.raw_refused;
    }
  }
  in.final_vertices = deleted.size();
}

bool apply_one(DynamicGraphStore& store, const DynamicRequest& q) {
  switch (q.type) {
    case DynamicRequestType::kAddEdge: return store.add_edge(q.edge);
    case DynamicRequestType::kDeleteEdge: return store.delete_edge(q.edge);
    case DynamicRequestType::kAddVertex: store.add_vertex(); return true;
    case DynamicRequestType::kDeleteVertex:
      return store.delete_vertex(q.vertex);
  }
  return false;
}

constexpr const char* kTypeMetric[] = {
    "dynamic.add_edge_ns", "dynamic.delete_edge_ns", "dynamic.add_vertex_ns",
    "dynamic.delete_vertex_ns"};

class DynamicWorkload final : public Workload {
 public:
  explicit DynamicWorkload(const Args& args)
      : data_dir_(args.data_dir), request_seed_(kFig20RequestSeed ^ args.seed) {}

  void warm() override { warm_datasets(data_dir_, ids_); }

  RepResult rep(bool traced) override {
    RepResult r;
    const auto setup_start = Clock::now();
    double load_s = 0;
    std::vector<GraphInput> inputs;
    for (const hyve::DatasetId id : ids_) {
      GraphInput& in = inputs.emplace_back();
      in.name = hyve::dataset_name(id);
      const auto load_start = Clock::now();
      in.graph = load_dataset(data_dir_, id);
      load_s += seconds_since(load_start);
      filter_stream(in, hyve::generate_requests(in.graph, kRequestsPerGraph,
                                                {}, request_seed_));
      // bench_fig20's store shapes: HyVE's P for 4-byte values, GraphR's
      // 8-vertex blocks behind a hash directory.
      in.hyve_options.num_intervals =
          hyve::HyveMachine(hyve::HyveConfig::hyve_opt())
              .choose_num_intervals(in.graph, 4);
      in.graphr_options.num_intervals = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>((in.graph.num_vertices() + 7) / 8));
      in.graphr_options.hashed_block_directory = true;
    }
    r.setup_s = seconds_since(setup_start);

    std::vector<double> request_ns;
    double type_ns[4] = {0, 0, 0, 0};
    double type_count[4] = {0, 0, 0, 0};
    double build_s[2] = {0, 0};
    double apply_s[2] = {0, 0};
    double rebuilds = 0, overflow_chunks = 0, raw = 0, raw_refused = 0;
    for (const GraphInput& in : inputs) {
      raw += static_cast<double>(in.stream.size() + in.raw_refused);
      raw_refused += static_cast<double>(in.raw_refused);
      std::vector<Edge> snapshots[2];
      for (int kind = 0; kind < 2; ++kind) {
        const DynamicGraphOptions& options =
            kind == 0 ? in.hyve_options : in.graphr_options;
        const auto build_start = Clock::now();
        auto store = std::make_unique<DynamicGraphStore>(in.graph, options);
        build_s[kind] += seconds_since(build_start);

        std::uint64_t accepted = 0;
        const auto apply_start = Clock::now();
        if (traced && kind == 0) {
          // Consecutive timestamps: each request's time runs from the end
          // of the previous one, so the samples tile the apply loop.
          auto prev = apply_start;
          for (const DynamicRequest& q : in.stream) {
            accepted += apply_one(*store, q) ? 1 : 0;
            const auto now = Clock::now();
            const double ns =
                std::chrono::duration<double, std::nano>(now - prev).count();
            prev = now;
            request_ns.push_back(ns);
            type_ns[static_cast<int>(q.type)] += ns;
            type_count[static_cast<int>(q.type)] += 1;
          }
        } else {
          accepted = hyve::apply_requests(*store, in.stream).requests_applied;
        }
        apply_s[kind] += seconds_since(apply_start);

        r.attempted += in.stream.size();
        r.failed += in.stream.size() - accepted;
        if (kind == 0) {
          rebuilds += static_cast<double>(store->preprocess_count());
          overflow_chunks += static_cast<double>(store->overflow_chunks());
        }
        const Graph snapshot = store->snapshot();
        const bool state_ok = snapshot.num_edges() == in.final_edges &&
                              snapshot.num_vertices() == in.final_vertices &&
                              multiset_hash(snapshot.edges()) == in.final_hash;
        if (!state_ok) {
          std::cout << "FAIL: " << (kind == 0 ? "HyVE" : "GraphR")
                    << " store on " << in.name
                    << " ends in a state other than the reference model's\n";
          ++r.failed;
        }
        if (!checked_sorted_) snapshots[kind] = snapshot.edges();
      }
      if (!checked_sorted_) {
        for (std::vector<Edge>& s : snapshots) std::sort(s.begin(), s.end());
        if (snapshots[0] != snapshots[1]) {
          std::cout << "FAIL: HyVE and GraphR sorted snapshots differ on "
                    << in.name << "\n";
          ++r.failed;
        }
        std::cout << in.name << ": " << in.raw_refused << " of "
                  << in.stream.size() + in.raw_refused
                  << " generated requests would be refused; "
                  << in.stream.size() << " applied, "
                  << in.final_edges << " edges at the end\n";
      }
    }
    checked_sorted_ = true;

    r.wall_s = build_s[0] + build_s[1] + apply_s[0] + apply_s[1];
    r.ops = static_cast<double>(r.attempted) / 2;  // per store
    r.ops_seconds = apply_s[0];
    r.extra["dynamic.mreq_per_s"] = r.ops / r.ops_seconds / 1e6;
    r.extra["dynamic.graphr_mreq_per_s"] = r.ops / apply_s[1] / 1e6;
    r.extra["dynamic.raw_refused_frac"] = raw_refused / raw;
    if (traced) {
      auto& L = r.layers;
      L["graph.load_ms"] = load_s * 1e3;
      L["dynamic.build_ms.hyve"] = build_s[0] * 1e3;
      L["dynamic.build_ms.graphr"] = build_s[1] * 1e3;
      for (int t = 0; t < 4; ++t)
        L[kTypeMetric[t]] = type_count[t] > 0 ? type_ns[t] / type_count[t] : 0;
      double tiled_ns = 0;
      for (const double ns : request_ns) tiled_ns += ns;
      L["dynamic.req_ns_p50"] = quantile(request_ns, 0.5);
      L["dynamic.req_ns_p999"] = quantile(std::move(request_ns), 0.999);
      L["dynamic.rebuilds"] = rebuilds;
      L["dynamic.overflow_chunks"] = overflow_chunks;
      L["trace.coverage"] =
          (build_s[0] + build_s[1] + apply_s[1] + tiled_ns / 1e9) / r.wall_s;
    }
    return r;
  }

 private:
  std::string data_dir_;
  std::uint64_t request_seed_;
  std::vector<hyve::DatasetId> ids_ = {hyve::DatasetId::kYT,
                                       hyve::DatasetId::kWK,
                                       hyve::DatasetId::kLJ};
  bool checked_sorted_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_dynamic_workload(const Args& args) {
  return std::make_unique<DynamicWorkload>(args);
}

}  // namespace perfbench
