#include "graph/io.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "obs/host_profiler.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

constexpr std::uint64_t kMagic = 0x48795645'67726630ULL;  // "HyVEgrf0"
constexpr std::uint32_t kVersion = 1;
// Header: magic + version + V + E.
constexpr std::uint64_t kBinaryHeaderBytes = 8 + 4 + 4 + 8;

}  // namespace

Graph load_edge_list_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw FileError("cannot open " + path);
  std::vector<Edge> edges;
  VertexId declared_vertices = 0;
  VertexId max_id = 0;
  std::string line;
  std::uint64_t line_no = 0;
  // Ids must stay below 2^32 - 1 so max(id) + 1 still fits VertexId.
  constexpr std::uint64_t kMaxId = std::numeric_limits<VertexId>::max() - 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Recognise the SNAP-style "# Nodes: N Edges: M" header.
      const auto pos = line.find("Nodes:");
      if (pos != std::string::npos) {
        std::istringstream hs(line.substr(pos + 6));
        std::uint64_t n = 0;
        if (hs >> n) {
          if (n > kMaxId + 1)
            throw FileError("vertex count " + std::to_string(n) +
                            " exceeds the 32-bit id space in " + path +
                            " line " + std::to_string(line_no));
          declared_vertices = static_cast<VertexId>(n);
        }
      }
      continue;
    }
    std::istringstream ls(line);
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    if (!(ls >> src >> dst))
      throw FileError("malformed edge line in " + path + ": " + line);
    if (src > kMaxId || dst > kMaxId)
      throw FileError("vertex id " + std::to_string(std::max(src, dst)) +
                      " exceeds the 32-bit id space in " + path + " line " +
                      std::to_string(line_no) + ": " + line);
    edges.push_back(
        {static_cast<VertexId>(src), static_cast<VertexId>(dst)});
    max_id = std::max({max_id, edges.back().src, edges.back().dst});
  }
  const VertexId v =
      std::max<VertexId>(declared_vertices, edges.empty() ? 0 : max_id + 1);
  return Graph(v, std::move(edges));
}

void save_edge_list_text(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw FileError("cannot open " + path + " for writing");
  out << "# Nodes: " << g.num_vertices() << " Edges: " << g.num_edges()
      << '\n';
  for (const Edge& e : g.edges()) out << e.src << '\t' << e.dst << '\n';
  if (!out) throw FileError("write failed: " + path);
}

Graph load_graph_binary(const std::string& path) {
  const obs::HostSpan host_span("graph.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FileError("cannot open " + path);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t v = 0;
  std::uint64_t e = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&version), sizeof version);
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  in.read(reinterpret_cast<char*>(&e), sizeof e);
  if (!in || magic != kMagic || version != kVersion)
    throw FileError("bad graph binary header: " + path);
  // The header's edge count is untrusted: check it against the actual
  // file size before sizing any allocation, so a corrupt count can never
  // trigger a multi-GiB vector or a bad_alloc.
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  if (ec) throw FileError("cannot stat " + path + ": " + ec.message());
  if (file_size < kBinaryHeaderBytes ||
      (file_size - kBinaryHeaderBytes) % sizeof(Edge) != 0 ||
      e != (file_size - kBinaryHeaderBytes) / sizeof(Edge))
    throw FileError("graph binary edge count " + std::to_string(e) +
                    " does not match file size " + std::to_string(file_size) +
                    ": " + path);
  // Read in cache-sized chunks, range-check each chunk while it is hot
  // and append it to the reserved vector: the edges are written once,
  // with no zero fill ahead of the read, and checked once (the Graph
  // constructor skips its own pass).
  constexpr std::uint64_t kChunkEdges = 16384;  // 128 KiB
  std::vector<Edge> chunk(std::min(e, kChunkEdges));
  std::vector<Edge> edges;
  edges.reserve(e);
  for (std::uint64_t done = 0; done < e;) {
    const std::uint64_t n = std::min(e - done, kChunkEdges);
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(n * sizeof(Edge)));
    if (!in) throw FileError("truncated graph binary: " + path);
    // A branch-free max (vectorizes); the slow scan names the first bad
    // edge only once the chunk is known to hold one.
    const auto end = chunk.begin() + static_cast<std::ptrdiff_t>(n);
    VertexId max_id = 0;
    for (std::uint64_t i = 0; i < n; ++i)
      max_id = std::max({max_id, chunk[i].src, chunk[i].dst});
    if (max_id >= v) {
      const Edge bad = *std::find_if(chunk.begin(), end, [v](const Edge& x) {
        return x.src >= v || x.dst >= v;
      });
      throw FileError("edge " + std::to_string(bad.src) + "->" +
                      std::to_string(bad.dst) + " out of range for V=" +
                      std::to_string(v) + ": " + path);
    }
    edges.insert(edges.end(), chunk.begin(), end);
    done += n;
  }
  return Graph(v, std::move(edges), Graph::Prechecked{});
}

void save_graph_binary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw FileError("cannot open " + path + " for writing");
  const std::uint64_t magic = kMagic;
  const std::uint32_t version = kVersion;
  const std::uint32_t v = g.num_vertices();
  const std::uint64_t e = g.num_edges();
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
  out.write(reinterpret_cast<const char*>(&e), sizeof e);
  out.write(reinterpret_cast<const char*>(g.edges().data()),
            static_cast<std::streamsize>(e * sizeof(Edge)));
  if (!out) throw FileError("write failed: " + path);
}

Graph load_graph_auto(const std::string& path) {
  std::uint64_t magic = 0;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw FileError("cannot open " + path);
    in.read(reinterpret_cast<char*>(&magic), sizeof magic);
    if (!in) magic = 0;  // shorter than 8 bytes: treat as text
  }
  return magic == kMagic ? load_graph_binary(path) : load_edge_list_text(path);
}

}  // namespace hyve
