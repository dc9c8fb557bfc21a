// HyVEgrf2 blocked format: round-trips, streaming equivalence with the
// in-memory path, window bounds, and corruption handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "graph/blocked_format.hpp"
#include "graph/blocked_reader.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"

namespace hyve {
namespace {

class BlockedIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hyve-blocked-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(BlockedIoTest, PaperGraphRoundTrip) {
  const Graph g = paper_example_graph();
  blocked::write_blocked(g, path("p.hgb"));
  const BlockedGraphReader reader(path("p.hgb"));
  EXPECT_EQ(reader.num_vertices(), g.num_vertices());
  EXPECT_EQ(reader.num_edges(), g.num_edges());
  EXPECT_EQ(materialize(reader).edges(), g.edges());
}

TEST_F(BlockedIoTest, RmatRoundTripAcrossBlockBoundaries) {
  const Graph g = generate_rmat(2000, 30000, {}, 11);
  blocked::WriteOptions options;
  options.block_edges = 1024;  // force many blocks
  blocked::write_blocked(g, path("r.hgb"), options);
  const BlockedGraphReader reader(path("r.hgb"));
  EXPECT_GT(reader.num_blocks(), 10u);
  EXPECT_EQ(materialize(reader).edges(), g.edges());
}

TEST_F(BlockedIoTest, EmptyGraphRoundTrip) {
  const Graph g(42, {});
  blocked::write_blocked(g, path("e.hgb"));
  const BlockedGraphReader reader(path("e.hgb"));
  EXPECT_EQ(reader.num_vertices(), 42u);
  EXPECT_EQ(reader.num_edges(), 0u);
  EXPECT_EQ(reader.num_blocks(), 0u);
  EXPECT_EQ(materialize(reader).num_vertices(), 42u);
}

TEST_F(BlockedIoTest, ChunkedAppendMatchesWholeGraphWrite) {
  const Graph g = generate_rmat(1000, 8000, {}, 12);
  blocked::write_blocked(g, path("whole.hgb"));
  {
    blocked::BlockedWriter w(path("chunks.hgb"), g.num_vertices());
    const auto& edges = g.edges();
    for (std::size_t i = 0; i < edges.size(); i += 7)  // ragged chunks
      w.append(std::span<const Edge>(
          edges.data() + i, std::min<std::size_t>(7, edges.size() - i)));
    w.finish();
  }
  // Same edges in the same order → byte-identical files.
  std::ifstream a(path("whole.hgb"), std::ios::binary);
  std::ifstream b(path("chunks.hgb"), std::ios::binary);
  const std::vector<char> da((std::istreambuf_iterator<char>(a)),
                             std::istreambuf_iterator<char>());
  const std::vector<char> db((std::istreambuf_iterator<char>(b)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(da, db);
}

TEST_F(BlockedIoTest, GeneratorChunkedEqualsInMemory) {
  // generate_rmat_blocked must be bit-identical to generate_rmat: same
  // spill/merge dedup contract, so full-scale graphs generated out of
  // core are the same graphs the in-memory benches use.
  const RmatParams params;  // dedup, no self-loops: the dataset default
  const Graph g = generate_rmat(3000, 20000, params, 42);
  generate_rmat_blocked(path("g.hgb"), 3000, 20000, params, 42);
  EXPECT_EQ(materialize(BlockedGraphReader(path("g.hgb"))).edges(),
            g.edges());
}

TEST_F(BlockedIoTest, GeneratorChunkedEqualsInMemoryTinyChunks) {
  // Tiny chunk/spill sizes exercise multi-run external merge paths.
  const RmatParams params;
  const Graph g = generate_rmat(500, 6000, params, 7);
  RmatChunkOptions options;
  options.chunk_edges = 512;
  options.write.block_edges = 256;
  generate_rmat_blocked(path("t.hgb"), 500, 6000, params, 7, options);
  EXPECT_EQ(materialize(BlockedGraphReader(path("t.hgb"))).edges(),
            g.edges());
}

TEST_F(BlockedIoTest, AutoLoaderReadsBlocked) {
  const Graph g = generate_rmat(400, 2000, {}, 9);
  blocked::write_blocked(g, path("a.hgb"));
  EXPECT_EQ(load_graph_auto(path("a.hgb")).edges(), g.edges());
}

TEST_F(BlockedIoTest, BoundedWindowEvictsAndStaysUnderBudget) {
  const Graph g = generate_rmat(2000, 40000, {}, 13);
  blocked::WriteOptions options;
  options.block_edges = 2048;  // 16 KiB decoded per full block
  blocked::write_blocked(g, path("w.hgb"), options);

  BlockedReaderOptions reader_options;
  reader_options.window_bytes = 48 * 1024;  // room for ~3 decoded blocks
  const BlockedGraphReader reader(path("w.hgb"), reader_options);
  ASSERT_GT(reader.num_blocks(), 6u);

  EXPECT_EQ(materialize(reader).edges(), g.edges());
  EXPECT_GT(reader.window_evictions(), 0u);
  EXPECT_LE(reader.window_peak_bytes(), reader_options.window_bytes);
  EXPECT_LE(reader.window_resident_bytes(), reader_options.window_bytes);

  // A second scan re-faults what was evicted — same result.
  EXPECT_EQ(materialize(reader).edges(), g.edges());
  EXPECT_LE(reader.window_peak_bytes(), reader_options.window_bytes);
}

TEST_F(BlockedIoTest, UnboundedWindowFaultsEachBlockOnce) {
  const Graph g = generate_rmat(1000, 10000, {}, 14);
  blocked::WriteOptions options;
  options.block_edges = 1024;
  blocked::write_blocked(g, path("u.hgb"), options);
  const BlockedGraphReader reader(path("u.hgb"));
  EXPECT_EQ(materialize(reader).edges(), g.edges());
  EXPECT_EQ(materialize(reader).edges(), g.edges());
  EXPECT_EQ(reader.blocks_faulted(), reader.num_blocks());  // all hits
  EXPECT_EQ(reader.window_evictions(), 0u);
}

TEST_F(BlockedIoTest, ReleaseWindowDropsResidency) {
  const Graph g = generate_rmat(500, 5000, {}, 15);
  blocked::write_blocked(g, path("d.hgb"));
  BlockedGraphReader reader(path("d.hgb"));
  (void)materialize(reader);
  EXPECT_GT(reader.window_resident_bytes(), 0u);
  reader.release_window();
  EXPECT_EQ(reader.window_resident_bytes(), 0u);
  // Still readable afterwards.
  EXPECT_EQ(materialize(reader).edges(), g.edges());
}

TEST_F(BlockedIoTest, StreamedPartitioningMatchesInMemory) {
  const Graph g = generate_rmat(1500, 12000, {}, 16);
  blocked::WriteOptions options;
  options.block_edges = 1024;
  blocked::write_blocked(g, path("s.hgb"), options);
  BlockedReaderOptions reader_options;
  reader_options.window_bytes = 16 * 1024;
  const BlockedGraphReader reader(path("s.hgb"), reader_options);

  const Partitioning in_memory(g, VertexMap::uniform(g.num_vertices(), 8));
  const Partitioning streamed(reader, VertexMap::uniform(g.num_vertices(), 8));
  ASSERT_EQ(streamed.num_edges(), in_memory.num_edges());
  for (std::uint32_t x = 0; x < 8; ++x)
    for (std::uint32_t y = 0; y < 8; ++y) {
      const EdgeBlockSoA a = in_memory.block(x, y);
      const EdgeBlockSoA b = streamed.block(x, y);
      ASSERT_EQ(a.size(), b.size()) << "block " << x << "," << y;
      for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.edge(i), b.edge(i)) << "block " << x << "," << y;
    }
}

// --- corruption: every tampered byte is caught before edges escape ---

void patch_byte(const std::string& path, std::uint64_t offset,
                std::uint8_t xor_mask) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  f.seekp(static_cast<std::streamoff>(offset));
  b = static_cast<char>(b ^ xor_mask);
  f.write(&b, 1);
  ASSERT_TRUE(f.good());
}

TEST_F(BlockedIoTest, TruncatedFileThrows) {
  const Graph g = generate_rmat(500, 5000, {}, 17);
  blocked::write_blocked(g, path("t.hgb"));
  std::filesystem::resize_file(
      path("t.hgb"), std::filesystem::file_size(path("t.hgb")) - 100);
  EXPECT_THROW(BlockedGraphReader reader(path("t.hgb")), FileError);
}

TEST_F(BlockedIoTest, BitFlippedFileHeaderThrows) {
  const Graph g = generate_rmat(500, 5000, {}, 18);
  blocked::write_blocked(g, path("h.hgb"));
  patch_byte(path("h.hgb"), 3, 0x40);  // inside the magic
  EXPECT_THROW(BlockedGraphReader reader(path("h.hgb")), FileError);
}

TEST_F(BlockedIoTest, CorruptPayloadThrowsOnFault) {
  const Graph g = generate_rmat(500, 5000, {}, 19);
  blocked::write_blocked(g, path("c.hgb"));
  // Flip a payload byte just after the first block header: the index
  // validates at open, the checksum catches the damage at fault time.
  patch_byte(path("c.hgb"), 512 + blocked::kBlockHeaderBytes, 0xFF);
  const BlockedGraphReader reader(path("c.hgb"));
  EXPECT_THROW(reader.block(0), FileError);
}

TEST_F(BlockedIoTest, CorruptIndexThrowsAtOpen) {
  const Graph g = generate_rmat(500, 5000, {}, 20);
  blocked::write_blocked(g, path("i.hgb"));
  // The index footer sits between the last block and the 16-byte
  // trailer; flip a byte of its first entry.
  const std::uint64_t size = std::filesystem::file_size(path("i.hgb"));
  std::uint64_t index_offset = 0;
  {
    std::ifstream in(path("i.hgb"), std::ios::binary);
    in.seekg(static_cast<std::streamoff>(size - 16));
    in.read(reinterpret_cast<char*>(&index_offset), sizeof index_offset);
    ASSERT_TRUE(in.good());
  }
  patch_byte(path("i.hgb"), index_offset + 8 + 4, 0x01);
  EXPECT_THROW(BlockedGraphReader reader(path("i.hgb")), FileError);
}

TEST_F(BlockedIoTest, OutOfRangeEndpointInPayloadThrows) {
  // The writer refuses out-of-range edges, so craft the damage by
  // patching an encoded payload and re-stamping its checksum: decode
  // must still reject endpoints >= V.
  const Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  blocked::write_blocked(g, path("o.hgb"));

  // Re-encode a payload whose delta stream walks past V and splice it in.
  const std::vector<Edge> bad = {{0, 1}, {1, 2}, {2, 9}};
  std::vector<std::uint8_t> payload;
  blocked::encode_block(bad, payload);
  blocked::BlockHeader bh;
  std::fstream f(path("o.hgb"),
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(512);
  f.read(reinterpret_cast<char*>(&bh), sizeof bh);
  ASSERT_EQ(bh.magic, blocked::kBlockMagic);
  ASSERT_EQ(bh.payload_bytes, payload.size());  // same edges, same size
  bh.payload_checksum = blocked::fnv1a(payload.data(), payload.size());
  f.seekp(512);
  f.write(reinterpret_cast<const char*>(&bh), sizeof bh);
  f.write(reinterpret_cast<const char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  f.close();

  const BlockedGraphReader reader(path("o.hgb"));
  EXPECT_THROW(reader.block(0), FileError);
}

TEST_F(BlockedIoTest, WriterRejectsOutOfRangeEdges) {
  blocked::BlockedWriter w(path("bad.hgb"), 4);
  EXPECT_ANY_THROW(w.append(Edge{7, 0}));
}

TEST_F(BlockedIoTest, VarintRejectsMalformedInput) {
  // Truncated (continuation bit set at end of buffer).
  const std::uint8_t truncated[] = {0x80};
  std::uint64_t out = 0;
  EXPECT_EQ(blocked::get_varint(truncated, truncated + 1, &out), nullptr);
  // Over-long (more than 10 continuation bytes).
  const std::uint8_t overlong[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                   0x80, 0x80, 0x80, 0x80, 0x80, 0x00};
  EXPECT_EQ(blocked::get_varint(overlong, overlong + sizeof overlong, &out),
            nullptr);
}

}  // namespace
}  // namespace hyve
