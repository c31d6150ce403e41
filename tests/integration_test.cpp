// Grand-tour integration: every subsystem against one deployment — files
// created through the POSIX adapter, listed through the namespace,
// guarded by range locks, accessed with every noncontiguous method, via
// MPI-IO collectives, checkpointed, traced and replayed — over both the
// threaded in-process cluster and real TCP sockets.
#include <gtest/gtest.h>

#include "ckpt/checkpoint.hpp"
#include "common/bytes.hpp"
#include "io/method.hpp"
#include "mpiio/file.hpp"
#include "net/socket_transport.hpp"
#include "pvfs/posixio.hpp"
#include "runtime/spmd.hpp"
#include "runtime/threaded_cluster.hpp"
#include "trace/trace.hpp"
#include "workloads/cyclic.hpp"
#include "workloads/strided.hpp"

namespace pvfs {
namespace {

TEST(GrandTour, ThreadedClusterEndToEnd) {
  runtime::ThreadedCluster cluster(8);

  // 1. Ingest a "dataset" through the POSIX adapter.
  constexpr ByteCount kDataset = 3 * kMiB + 12345;
  {
    Client client(&cluster.transport());
    auto stream = PvfsStream::Create(&client, "/tour/data",
                                     Striping{0, 8, 16384});
    ASSERT_TRUE(stream.ok());
    ByteBuffer data(kDataset);
    FillPattern(data, 1, 0);
    ASSERT_TRUE(stream->Write(data).ok());
    ASSERT_TRUE(stream->Close().ok());
  }

  // 2. Namespace sees it.
  {
    Client client(&cluster.transport());
    auto names = client.ListFiles("/tour/");
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(*names, (std::vector<std::string>{"/tour/data"}));
  }

  // 3. Four ranks each read a nested-strided slice with a different
  // noncontiguous method; all slices must agree with the pattern.
  runtime::RunSpmd(4, [&](runtime::SpmdContext& ctx) {
    Client client(&cluster.transport());
    auto fd = client.Open("/tour/data");
    ASSERT_TRUE(fd.ok());

    workloads::NestedStridedConfig config;
    config.base = ctx.rank() * 512;
    config.levels = {{64, 32768}, {4, 4096}};
    config.block_bytes = 256;
    io::AccessPattern pattern = workloads::NestedStridedPattern(config);

    const io::MethodType methods[] = {
        io::MethodType::kMultiple, io::MethodType::kDataSieving,
        io::MethodType::kList, io::MethodType::kHybrid};
    ByteBuffer buffer(pattern.total_bytes());
    auto method = io::MakeMethod(methods[ctx.rank()]);
    ASSERT_TRUE(method->Read(client, *fd, pattern, buffer).ok());

    ByteCount stream_pos = 0;
    for (const Extent& f : pattern.file) {
      EXPECT_FALSE(FindPatternMismatch(
                       std::span{buffer}.subspan(stream_pos, f.length), 1,
                       f.offset)
                       .has_value())
          << "rank " << ctx.rank();
      stream_pos += f.length;
    }
  });

  // 4. Collective checkpoint of a derived array, then restart.
  constexpr std::uint32_t kRanks = 4;
  {
    mpiio::Group group(kRanks);
    runtime::RunSpmd(kRanks, [&](runtime::SpmdContext& ctx) {
      Client client(&cluster.transport());
      ckpt::ArraySpec spec;
      spec.elem_size = 8;
      spec.global_dims = {32, 32};
      spec.local_offset = {ctx.rank() * 8ull, 0};
      spec.local_dims = {8, 32};
      ByteBuffer block(spec.LocalBytes());
      FillPattern(block, 70 + ctx.rank(), 0);
      ASSERT_TRUE(ckpt::WriteCheckpoint(&client, &group, ctx.rank(),
                                        "/tour/ckpt", spec, block, 99)
                      .ok());
      ByteBuffer back(block.size());
      ASSERT_TRUE(ckpt::ReadCheckpoint(&client, &group, ctx.rank(),
                                       "/tour/ckpt", spec, back)
                      .ok());
      EXPECT_EQ(back, block);
    });
  }

  // 5. The namespace now holds both; remove the dataset under a lock.
  {
    Client client(&cluster.transport());
    auto names = client.ListFiles("/tour/");
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(names->size(), 2u);
    auto fd = client.Open("/tour/data");
    ASSERT_TRUE(client.LockRange(*fd, {0, 0}).ok());
    ASSERT_TRUE(client.UnlockRange(*fd, {0, 0}).ok());
    ASSERT_TRUE(client.Close(*fd).ok());
    ASSERT_TRUE(client.Remove("/tour/data").ok());
    EXPECT_EQ(client.ListFiles("/tour/")->size(), 1u);
  }
}

TEST(GrandTour, SocketClusterEndToEnd) {
  auto cluster = net::SocketCluster::Start(4);
  ASSERT_TRUE(cluster.ok());

  // Trace replay over real sockets with list I/O, then verify through a
  // collective read.
  trace::Trace writes = trace::CyclicTrace(1 << 18, 4, 64, IoOp::kWrite);
  struct SocketFactoryTransport final : public Transport {
    explicit SocketFactoryTransport(const net::SocketCluster& c)
        : inner(c.Connect()) {}
    Result<std::vector<std::byte>> Call(
        const Endpoint& dest, std::span<const std::byte> request) override {
      return inner->Call(dest, request);
    }
    std::uint32_t server_count() const override {
      return inner->server_count();
    }
    std::unique_ptr<net::SocketTransport> inner;
  };

  // Replay spawns one thread per rank, all sharing this one transport:
  // their calls pipeline on one connection per daemon, each reply routed
  // to its caller by request id.
  SocketFactoryTransport transport(**cluster);
  trace::ReplayOptions options;
  options.striping = Striping{0, 4, 16384};
  options.file_name = "/tour/replayed";
  auto result = trace::Replay(transport, writes, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bytes_written, 1u << 18);

  // Every rank's share carries its seed pattern.
  Client reader(&transport);
  auto fd = reader.Open("/tour/replayed");
  ASSERT_TRUE(fd.ok());
  workloads::CyclicConfig config{1 << 18, 4, 64};
  for (Rank r = 0; r < 4; ++r) {
    auto pattern = workloads::CyclicPattern(config, r);
    ByteBuffer share(config.BytesPerClient());
    ASSERT_TRUE(
        reader.ReadList(*fd, pattern.memory, share, pattern.file).ok());
    EXPECT_FALSE(
        FindPatternMismatch(share, options.seed + r, 0).has_value())
        << "rank " << r;
  }
}

}  // namespace
}  // namespace pvfs
