// hyve_graphgen — generate synthetic graphs and convert edge-list formats.
//
//   hyve_graphgen rmat 100000 600000 out.txt [seed]
//   hyve_graphgen er   50000  300000 out.bin [seed]
//   hyve_graphgen dataset YT out.txt
//   hyve_graphgen convert in.txt out.bin
//
// Output format is chosen by extension: .bin = the binary cache format,
// anything else = SNAP-style text. Inputs to convert are told apart by
// their content (graph/io.hpp load_graph_auto), so either format
// converts to the other.
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/cli.hpp"

namespace {

using namespace hyve;

bool has_ext(const std::string& path, const std::string& ext) {
  return path.size() > ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

void save(const Graph& g, const std::string& path) {
  if (has_ext(path, ".bin"))
    save_graph_binary(g, path);
  else
    save_edge_list_text(g, path);
  std::cout << "wrote " << path << ": V=" << g.num_vertices()
            << " E=" << g.num_edges() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser parser("hyve_graphgen", "");
  parser.positional_usage(
      "  hyve_graphgen rmat V E OUT [seed]\n"
      "  hyve_graphgen er V E OUT [seed]\n"
      "  hyve_graphgen dataset YT|WK|AS|LJ|TW OUT\n"
      "  hyve_graphgen convert IN OUT\n"
      "OUT extension picks the format: .bin binary cache, else SNAP text");
  parser.allow_positionals(5);
  parser.parse(argc, argv);

  const std::vector<std::string>& args = parser.positionals();
  if (args.size() < 2) parser.fail("missing arguments");
  const std::string& mode = args[0];
  try {
    if (mode == "rmat" || mode == "er") {
      if (args.size() < 4) parser.fail(mode + " needs V E OUT");
      const long long max_v = mode == "rmat"
                                  ? kMaxRmatVertices
                                  : std::numeric_limits<VertexId>::max();
      const auto v =
          static_cast<VertexId>(cli::parse_int(parser, "V", args[1], 2, max_v));
      const auto e =
          static_cast<std::uint64_t>(cli::parse_int(parser, "E", args[2], 0));
      const auto seed = static_cast<std::uint64_t>(
          args.size() > 4 ? cli::parse_int(parser, "seed", args[4], 0) : 1);
      const Graph g = mode == "rmat" ? generate_rmat(v, e, {}, seed)
                                     : generate_erdos_renyi(v, e, seed);
      save(g, args[3]);
    } else if (mode == "dataset") {
      if (args.size() < 3) parser.fail("dataset needs NAME OUT");
      const auto id = parse_dataset(args[1]);
      if (!id) parser.fail("unknown dataset " + args[1]);
      save(dataset_graph(*id), args[2]);
    } else if (mode == "convert") {
      if (args.size() < 3) parser.fail("convert needs IN OUT");
      save(load_graph_auto(args[1]), args[2]);
    } else {
      parser.fail("unknown mode " + mode);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
