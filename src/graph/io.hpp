// Edge-list persistence.
//
// Text format matches SNAP's ("# comment" lines, then "src<ws>dst" pairs),
// so users can drop in the paper's original datasets where licensing
// allows. The binary format is a fast cache used by the dataset registry.
#pragma once

#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace hyve {

// Thrown by every loader on unreadable, malformed or corrupt input.
// Loaders validate untrusted headers *before* allocating or constructing
// a Graph, so a corrupt file can never OOM the process or hand back a
// silently wrong graph.
class FileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// SNAP-compatible whitespace-separated edge list. Vertex count is
// max(id)+1 unless a "# Nodes: N" header comment is present. Ids must
// fit VertexId (< 2^32 - 1); larger ids raise FileError naming the line
// instead of silently truncating.
Graph load_edge_list_text(const std::string& path);
void save_edge_list_text(const Graph& g, const std::string& path);

// Binary cache: little-endian {magic, version, V, E, edges[]}. The
// declared edge count is validated against the file size and every
// endpoint against V before the Graph is built.
Graph load_graph_binary(const std::string& path);
void save_graph_binary(const Graph& g, const std::string& path);

// Loads either format: the binary cache when the file starts with its
// magic bytes, SNAP text otherwise. The single entry point for tools
// that take a user-supplied path.
Graph load_graph_auto(const std::string& path);

}  // namespace hyve
