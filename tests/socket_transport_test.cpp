// TCP socket transport tests: the full client stack over real loopback
// sockets — framing, concurrent clients, reconnection, hostile frames.
#include "net/socket_transport.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/bytes.hpp"
#include "io/method.hpp"
#include "runtime/spmd.hpp"
#include "workloads/tiledviz.hpp"

namespace pvfs::net {
namespace {

constexpr Striping kDefault{0, 8, 16384};

TEST(SocketServer, EchoServiceRoundTrip) {
  auto server = SocketServer::Start(0, [](std::span<const std::byte> req) {
    std::vector<std::byte> out(req.begin(), req.end());
    std::reverse(out.begin(), out.end());
    return out;
  });
  ASSERT_TRUE(server.ok());
  EXPECT_GT((*server)->port(), 0);

  SocketTransport transport({"127.0.0.1", (*server)->port()}, {});
  ByteBuffer msg(1000);
  FillPattern(msg, 1, 0);
  auto resp = transport.Call(Endpoint::ManagerNode(), msg);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->size(), msg.size());
  for (size_t i = 0; i < msg.size(); ++i) {
    ASSERT_EQ((*resp)[i], msg[msg.size() - 1 - i]);
  }
}

TEST(SocketCluster, FullFileSystemOverSockets) {
  auto cluster = SocketCluster::Start(8);
  ASSERT_TRUE(cluster.ok());
  auto transport = (*cluster)->Connect();
  Client client(transport.get());

  auto fd = client.Create("/net/file", kDefault);
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(300000);
  FillPattern(data, 3, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());

  // List I/O over the wire too.
  ExtentList file{{100, 1000}, {100000, 2000}, {250000, 500}};
  ByteBuffer out(3500);
  ExtentList mem{{0, 3500}};
  ASSERT_TRUE(client.ReadList(*fd, mem, out, file).ok());
  ByteCount pos = 0;
  for (const Extent& e : file) {
    for (ByteCount i = 0; i < e.length; ++i) {
      ASSERT_EQ(out[pos + i], data[e.offset + i]);
    }
    pos += e.length;
  }
  ASSERT_TRUE(client.Close(*fd).ok());
  ASSERT_TRUE(client.Remove("/net/file").ok());
}

TEST(SocketCluster, ConcurrentClientsOverSockets) {
  auto cluster = SocketCluster::Start(4);
  ASSERT_TRUE(cluster.ok());

  runtime::RunSpmd(6, [&](runtime::SpmdContext& ctx) {
    auto transport = (*cluster)->Connect();
    Client client(transport.get());
    std::string name = "/net/f" + std::to_string(ctx.rank());
    auto fd = client.Create(name, Striping{0, 4, 8192});
    ASSERT_TRUE(fd.ok());
    ByteBuffer data(64 * 1024);
    FillPattern(data, ctx.rank(), 0);
    ASSERT_TRUE(client.Write(*fd, 0, data).ok());
    ByteBuffer out(data.size());
    ASSERT_TRUE(client.Read(*fd, 0, out).ok());
    ASSERT_EQ(out, data);
  });
}

TEST(SocketCluster, NoncontigMethodsOverSockets) {
  auto cluster = SocketCluster::Start(8);
  ASSERT_TRUE(cluster.ok());
  auto transport = (*cluster)->Connect();
  Client client(transport.get());

  workloads::TiledVizConfig config;
  auto fd = client.Create("/net/frame", kDefault);
  ASSERT_TRUE(fd.ok());
  ByteBuffer frame(config.FileBytes());
  FillPattern(frame, 9, 0);
  ASSERT_TRUE(client.Write(*fd, 0, frame).ok());

  for (io::MethodType method :
       {io::MethodType::kMultiple, io::MethodType::kList}) {
    auto pattern = workloads::TiledVizPattern(config, 4);
    ByteBuffer tile(config.TileBytes());
    auto io_method = io::MakeMethod(method);
    ASSERT_TRUE(io_method->Read(client, *fd, pattern, tile).ok());
    ByteCount pos = 0;
    for (const Extent& e : pattern.file) {
      for (ByteCount i = 0; i < e.length; ++i) {
        ASSERT_EQ(tile[pos + i], frame[e.offset + i])
            << io::MethodName(method);
      }
      pos += e.length;
    }
  }
}

TEST(SocketTransport, ConnectionFailureIsAnError) {
  // Nothing listens on this ephemeral-range port (we bind and close one
  // to find a free number).
  auto probe = SocketServer::Start(0, [](std::span<const std::byte>) {
    return std::vector<std::byte>{};
  });
  ASSERT_TRUE(probe.ok());
  std::uint16_t dead_port = (*probe)->port();
  probe->reset();

  SocketTransport transport({"127.0.0.1", dead_port}, {});
  ByteBuffer msg(8);
  auto resp = transport.Call(Endpoint::ManagerNode(), msg);
  EXPECT_FALSE(resp.ok());
}

std::size_t ThreadCount() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(SocketTransport, StartsNoThread) {
  // Callers read their own replies: exchanging with the manager and every
  // iod through one transport leaves the process's thread count as it was.
  auto cluster = SocketCluster::Start(4);
  ASSERT_TRUE(cluster.ok());
  auto transport = (*cluster)->Connect();
  Client client(transport.get());
  const std::size_t before = ThreadCount();

  auto fd = client.Create("/net/threads", Striping{0, 4, 4096});
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(4 * 4096);
  FillPattern(data, 11, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ByteBuffer back(data.size());
  ASSERT_TRUE(client.Read(*fd, 0, back).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(transport->stats().reconnects, 5u);  // manager + 4 iods

  EXPECT_EQ(ThreadCount(), before);
}

TEST(SocketServer, SurvivesClientsDisconnecting) {
  auto cluster = SocketCluster::Start(2);
  ASSERT_TRUE(cluster.ok());
  for (int round = 0; round < 5; ++round) {
    auto transport = (*cluster)->Connect();
    Client client(transport.get());
    auto fd = client.Create("/net/r" + std::to_string(round),
                            Striping{0, 2, 4096});
    ASSERT_TRUE(fd.ok());
    // transport destructs here: server workers must handle EOF.
  }
  // Cluster still serves new connections.
  auto transport = (*cluster)->Connect();
  Client client(transport.get());
  EXPECT_TRUE(client.Open("/net/r0").ok());
}

}  // namespace
}  // namespace pvfs::net
