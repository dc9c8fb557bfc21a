#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace hyve {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hyve-io-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  const Graph g = generate_rmat(200, 900, {}, 1);
  save_edge_list_text(g, path("g.txt"));
  const Graph loaded = load_edge_list_text(path("g.txt"));
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.edges(), g.edges());
}

TEST_F(IoTest, TextDeclaredVertexCountWins) {
  // A SNAP header can declare isolated trailing vertices.
  std::ofstream out(path("h.txt"));
  out << "# Nodes: 50 Edges: 1\n0 1\n";
  out.close();
  const Graph g = load_edge_list_text(path("h.txt"));
  EXPECT_EQ(g.num_vertices(), 50u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST_F(IoTest, TextWithoutHeaderInfersVertexCount) {
  std::ofstream out(path("i.txt"));
  out << "3 9\n1 2\n";
  out.close();
  const Graph g = load_edge_list_text(path("i.txt"));
  EXPECT_EQ(g.num_vertices(), 10u);  // max id + 1
}

TEST_F(IoTest, TextSkipsCommentsAndBlankLines) {
  std::ofstream out(path("j.txt"));
  out << "# comment\n\n0 1\n# another\n1 0\n";
  out.close();
  EXPECT_EQ(load_edge_list_text(path("j.txt")).num_edges(), 2u);
}

TEST_F(IoTest, TextMalformedLineThrows) {
  std::ofstream out(path("k.txt"));
  out << "0 notanumber\n";
  out.close();
  EXPECT_THROW(load_edge_list_text(path("k.txt")), std::runtime_error);
}

TEST_F(IoTest, TextMissingFileThrows) {
  EXPECT_THROW(load_edge_list_text(path("missing.txt")), std::runtime_error);
}

TEST_F(IoTest, TextEmptyGraphKeepsDeclaredVertexCount) {
  // The "# Nodes:" header the writer emits is the only record of
  // isolated vertices, so an edgeless graph keeps its V through it.
  const Graph g(42, {});
  save_edge_list_text(g, path("e.txt"));
  const Graph loaded = load_edge_list_text(path("e.txt"));
  EXPECT_EQ(loaded.num_vertices(), 42u);
  EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST_F(IoTest, TextDeclaredVertexCountNeverDropsEdges) {
  // A header smaller than the ids in the file cannot shrink the graph:
  // V is raised to max(id) + 1.
  std::ofstream out(path("s.txt"));
  out << "# Nodes: 2 Edges: 2\n0 1\n1 9\n";
  out.close();
  const Graph g = load_edge_list_text(path("s.txt"));
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(IoTest, TextKeepsEdgesVerbatimInFileOrder) {
  // The loader does no cleaning: parallel edges and self-loops survive
  // in file order, whether tabs or runs of spaces separate the ids.
  std::ofstream out(path("v.txt"));
  out << "3\t1\n0 0\n  3   1\n2\t0\n";
  out.close();
  const std::vector<Edge> expected = {{3, 1}, {0, 0}, {3, 1}, {2, 0}};
  EXPECT_EQ(load_edge_list_text(path("v.txt")).edges(), expected);
}

TEST_F(IoTest, TextNegativeIdThrows) {
  // A negative id is never a vertex: it must fail the load, not wrap
  // around into the 32-bit id space.
  std::ofstream out(path("n.txt"));
  out << "0 1\n-1 2\n";
  out.close();
  EXPECT_THROW(load_edge_list_text(path("n.txt")), FileError);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const Graph g = generate_rmat(500, 4000, {}, 2);
  save_graph_binary(g, path("g.bin"));
  const Graph loaded = load_graph_binary(path("g.bin"));
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.edges(), g.edges());
}

TEST_F(IoTest, BinaryEmptyGraphRoundTrip) {
  const Graph g(7, {});
  save_graph_binary(g, path("e.bin"));
  const Graph loaded = load_graph_binary(path("e.bin"));
  EXPECT_EQ(loaded.num_vertices(), 7u);
  EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST_F(IoTest, BinaryBadMagicThrows) {
  std::ofstream out(path("bad.bin"), std::ios::binary);
  out << "this is not a graph file at all, definitely";
  out.close();
  EXPECT_THROW(load_graph_binary(path("bad.bin")), std::runtime_error);
}

TEST_F(IoTest, BinaryTruncatedThrows) {
  const Graph g = generate_rmat(100, 400, {}, 3);
  save_graph_binary(g, path("t.bin"));
  std::filesystem::resize_file(path("t.bin"),
                               std::filesystem::file_size(path("t.bin")) / 2);
  EXPECT_THROW(load_graph_binary(path("t.bin")), std::runtime_error);
}

// --- corruption suite: untrusted headers and payloads fail loudly ---

// Patches `size` bytes at `offset` in an existing file.
void patch_file(const std::string& path, std::uint64_t offset,
                const void* data, std::size_t size) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  ASSERT_TRUE(f.good());
}

// Binary header layout: magic u64 @0, version u32 @8, V u32 @12, E u64 @16.
constexpr std::uint64_t kVersionOffset = 8;
constexpr std::uint64_t kEdgeCountOffset = 16;
constexpr std::uint64_t kHeaderBytes = 24;

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST_F(IoTest, BinaryWrongVersionThrows) {
  const Graph g = generate_rmat(100, 400, {}, 8);
  save_graph_binary(g, path("w.bin"));
  const std::uint32_t future_version = 2;
  patch_file(path("w.bin"), kVersionOffset, &future_version,
             sizeof future_version);
  EXPECT_THROW(load_graph_binary(path("w.bin")), FileError);
}

TEST_F(IoTest, BinaryShorterThanHeaderThrows) {
  // Only the magic survives: the header read runs out before V and E.
  const Graph g = generate_rmat(100, 400, {}, 9);
  save_graph_binary(g, path("m.bin"));
  std::filesystem::resize_file(path("m.bin"), 8);
  EXPECT_THROW(load_graph_binary(path("m.bin")), FileError);
}

TEST_F(IoTest, MissingFileThrowsFileErrorFromEveryLoader) {
  EXPECT_THROW(load_edge_list_text(path("missing")), FileError);
  EXPECT_THROW(load_graph_binary(path("missing")), FileError);
  EXPECT_THROW(load_graph_auto(path("missing")), FileError);
}

TEST_F(IoTest, SaveIntoMissingDirectoryThrows) {
  const Graph g = paper_example_graph();
  EXPECT_THROW(save_graph_binary(g, path("no/such/dir/g.bin")), FileError);
  EXPECT_THROW(save_edge_list_text(g, path("no/such/dir/g.txt")), FileError);
}

TEST_F(IoTest, ConvertingBetweenFormatsIsLossless) {
  // What hyve_graphgen convert does: .bin -> text -> .bin gives back the
  // same file byte for byte, isolated trailing vertices included.
  const Graph g(20, paper_example_graph().edges());  // 8..19 isolated
  save_graph_binary(g, path("a.bin"));
  save_edge_list_text(load_graph_auto(path("a.bin")), path("a.txt"));
  save_graph_binary(load_graph_auto(path("a.txt")), path("b.bin"));
  const std::vector<char> bytes = read_bytes(path("a.bin"));
  EXPECT_EQ(bytes.size(), kHeaderBytes + g.num_edges() * sizeof(Edge));
  EXPECT_EQ(read_bytes(path("b.bin")), bytes);
}

TEST_F(IoTest, BinaryOversizedEdgeCountThrows) {
  // A corrupt multi-billion edge count must be rejected against the file
  // size before any allocation happens — not discovered via bad_alloc.
  const Graph g = generate_rmat(100, 400, {}, 4);
  save_graph_binary(g, path("o.bin"));
  const std::uint64_t huge = std::uint64_t{1} << 40;
  patch_file(path("o.bin"), kEdgeCountOffset, &huge, sizeof huge);
  EXPECT_THROW(load_graph_binary(path("o.bin")), FileError);
}

TEST_F(IoTest, BinaryBitFlippedHeaderThrows) {
  const Graph g = generate_rmat(100, 400, {}, 5);
  save_graph_binary(g, path("f.bin"));
  // Flip one bit of the magic; the loader must not fall through to the
  // edge array.
  std::ifstream in(path("f.bin"), std::ios::binary);
  char byte = 0;
  in.read(&byte, 1);
  in.close();
  byte = static_cast<char>(byte ^ 0x01);
  patch_file(path("f.bin"), 0, &byte, 1);
  EXPECT_THROW(load_graph_binary(path("f.bin")), FileError);
}

TEST_F(IoTest, BinaryTrailingBytesThrow) {
  const Graph g = generate_rmat(100, 400, {}, 6);
  save_graph_binary(g, path("x.bin"));
  std::ofstream app(path("x.bin"), std::ios::binary | std::ios::app);
  app << "junk";
  app.close();
  EXPECT_THROW(load_graph_binary(path("x.bin")), FileError);
}

TEST_F(IoTest, BinaryOutOfRangeEndpointThrows) {
  // Hand-built file: V=5 but an edge targets vertex 9. Every endpoint
  // must be validated before the Graph is constructed.
  std::ofstream out(path("r.bin"), std::ios::binary);
  const std::uint64_t magic = 0x48795645'67726630ULL;  // "HyVEgrf0"
  const std::uint32_t version = 1;
  const std::uint32_t v = 5;
  const std::uint64_t e = 1;
  const std::uint32_t edge[2] = {9, 0};  // src out of range
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
  out.write(reinterpret_cast<const char*>(&e), sizeof e);
  out.write(reinterpret_cast<const char*>(edge), sizeof edge);
  out.close();
  ASSERT_EQ(std::filesystem::file_size(path("r.bin")), kHeaderBytes + 8);
  EXPECT_THROW(load_graph_binary(path("r.bin")), FileError);
}

TEST_F(IoTest, TextHugeIdThrowsNamingLine) {
  std::ofstream out(path("big.txt"));
  out << "0 1\n0 4294967295\n";  // id == 2^32 - 1 cannot fit max(id)+1
  out.close();
  try {
    load_edge_list_text(path("big.txt"));
    FAIL() << "expected FileError";
  } catch (const FileError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, TextHugeDeclaredNodeCountThrows) {
  std::ofstream out(path("bign.txt"));
  out << "# Nodes: 5000000000 Edges: 1\n0 1\n";
  out.close();
  EXPECT_THROW(load_edge_list_text(path("bign.txt")), FileError);
}

TEST_F(IoTest, AutoDispatchesByContent) {
  const Graph g = generate_rmat(300, 1200, {}, 7);
  // Extensions deliberately lie: auto dispatch sniffs the magic bytes.
  save_graph_binary(g, path("a.graph"));
  save_edge_list_text(g, path("b.graph"));
  EXPECT_EQ(load_graph_auto(path("a.graph")).edges(), g.edges());
  EXPECT_EQ(load_graph_auto(path("b.graph")).edges(), g.edges());
  // The retired HyVEgrf2 blocked format is neither: a file that starts
  // with its magic fails loudly, even with edge lines after the magic.
  std::ofstream out(path("c.graph"), std::ios::binary);
  const std::uint64_t retired_magic = 0x48795645'67726632ULL;  // "HyVEgrf2"
  out.write(reinterpret_cast<const char*>(&retired_magic),
            sizeof retired_magic);
  out << "\n0 1\n1 2\n";
  out.close();
  EXPECT_THROW(load_graph_auto(path("c.graph")), FileError);
}

TEST_F(IoTest, AutoReadsTextShorterThanTheMagic) {
  // A 4-byte edge list cannot hold the 8-byte magic: it is text.
  std::ofstream out(path("s.graph"));
  out << "0 1\n";
  out.close();
  const Graph g = load_graph_auto(path("s.graph"));
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.edges(), (std::vector<Edge>{{0, 1}}));
}

TEST_F(IoTest, AutoRejectsCorruptBinaryInsteadOfReadingText) {
  // A damaged cache still starts with the magic, so auto dispatch hands
  // it to the binary loader's checks; it is never re-read as text.
  const Graph g = generate_rmat(100, 400, {}, 10);
  save_graph_binary(g, path("c.graph"));
  std::filesystem::resize_file(
      path("c.graph"), std::filesystem::file_size(path("c.graph")) - 3);
  try {
    load_graph_auto(path("c.graph"));
    FAIL() << "expected FileError";
  } catch (const FileError& e) {
    EXPECT_NE(std::string(e.what()).find("graph binary"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hyve
