// Parameterized robustness sweeps: the transport under increasing packet
// loss, the buffer cache under shrinking capacity, and SNFS end-to-end
// integrity across a grid of (loss, capacity) stress points.
#include <gtest/gtest.h>

#include <string>

#include "src/cache/buffer_cache.h"
#include "src/sim/random.h"
#include "tests/testbed_util.h"

namespace {

using testbed::ServerProtocol;
using testbed::TestPattern;
using testbed::World;

// --- RPC transport vs. packet loss -------------------------------------------

class RpcLossSweep : public ::testing::TestWithParam<int> {};  // loss %

TEST_P(RpcLossSweep, AllCallsCompleteExactlyOnce) {
  net::NetworkParams net;
  net.loss_rate = GetParam() / 100.0;
  sim::Simulator simulator;
  net::Network network(simulator, net, /*seed=*/GetParam() + 1);
  sim::Cpu client_cpu(simulator);
  sim::Cpu server_cpu(simulator);
  rpc::Peer client(simulator, network, client_cpu, "client");
  rpc::Peer server(simulator, network, server_cpu, "server");
  int executions = 0;
  server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&executions](proto::Request, net::Address) -> sim::Task<proto::Reply> {
        ++executions;
        co_return proto::OkReply(proto::NullRep{});
      });
  client.Start();
  server.Start();

  constexpr int kCalls = 40;
  int completed = 0;
  for (int i = 0; i < kCalls; ++i) {
    simulator.Spawn([](rpc::Peer& client, net::Address dst, int& completed) -> sim::Task<void> {
      rpc::CallOptions opts;
      opts.timeout = sim::Msec(400);
      opts.max_attempts = 25;
      proto::CreateReq create;  // non-idempotent: its reply is cached
      create.name = "f";
      auto r = co_await client.Call(dst, proto::Request(create), opts);
      if (r.ok() && r->status.ok()) {
        ++completed;
      }
    }(client, server.address(), completed));
  }
  simulator.Run();
  EXPECT_EQ(completed, kCalls);
  EXPECT_EQ(executions, kCalls);  // duplicate cache: exactly once, any loss rate
}

INSTANTIATE_TEST_SUITE_P(LossRates, RpcLossSweep, ::testing::Values(0, 5, 15, 30, 45),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Loss" + std::to_string(info.param) + "pct";
                         });

// --- Buffer cache vs. capacity ------------------------------------------------

class CacheCapacitySweep : public ::testing::TestWithParam<int> {};  // blocks

TEST_P(CacheCapacitySweep, RandomWorkloadMatchesBackingStore) {
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.capacity_blocks = static_cast<size_t>(GetParam());
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);

  // A faithful backing store: an in-memory block map with simulated delay.
  auto store_map =
      std::make_shared<std::map<std::pair<uint64_t, uint64_t>, proto::Bytes>>();
  cache::Backing backing;
  // lint: coro-lambda-ok (backing and simulator share the test scope)
  backing.fetch = [store_map, &simulator](uint64_t file, uint64_t block)
      -> sim::Task<base::Result<proto::Bytes>> {
    co_await sim::Sleep(simulator, sim::Msec(5));
    auto it = store_map->find({file, block});
    co_return it == store_map->end() ? proto::Bytes() : it->second;
  };
  // lint: coro-lambda-ok (backing and simulator share the test scope)
  backing.store = [store_map, &simulator](uint64_t file, uint64_t block, proto::Bytes data)
      -> sim::Task<base::Result<void>> {
    co_await sim::Sleep(simulator, sim::Msec(5));
    (*store_map)[{file, block}] = std::move(data);
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));

  bool done = false;
  simulator.Spawn([](cache::BufferCache& cache, int mount, uint64_t seed,
                     bool& done) -> sim::Task<void> {
    sim::Rng rng(seed);
    // Oracle: expected content per (file, block).
    std::map<std::pair<uint64_t, uint64_t>, uint8_t> oracle;
    std::map<uint64_t, uint64_t> file_size;
    for (int op = 0; op < 300; ++op) {
      uint64_t file = static_cast<uint64_t>(rng.UniformInt(1, 4));
      uint64_t block = static_cast<uint64_t>(rng.UniformInt(0, 15));
      if (rng.Bernoulli(0.5)) {
        uint8_t fill = static_cast<uint8_t>(rng.Next());
        proto::Bytes data(std::vector<uint8_t>(cache::kBlockSize, fill));
        EXPECT_TRUE((co_await cache.WriteDelayed(mount, file, block * cache::kBlockSize, data,
                                                 file_size[file]))
                        .ok());
        oracle[{file, block}] = fill;
        file_size[file] = std::max(file_size[file], (block + 1) * cache::kBlockSize);
      } else {
        auto got = co_await cache.Read(mount, file, block * cache::kBlockSize,
                                       cache::kBlockSize, file_size[file], rng.Bernoulli(0.5));
        auto it = oracle.find({file, block});
        EXPECT_TRUE(got.ok());
        if (got.ok() && it != oracle.end()) {
          EXPECT_EQ(got->size(), cache::kBlockSize);
          if (!got->empty()) {
            EXPECT_EQ((*got)[0], it->second) << "file " << file << " block " << block;
            EXPECT_EQ(got->back(), it->second);
          }
        }
      }
    }
    // Final flush, then every oracle entry must be in the backing store.
    co_await cache.FlushAll();
    done = true;
  }(cache, mount, static_cast<uint64_t>(GetParam()) * 31 + 7, done));
  simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_LE(cache.size_blocks(), static_cast<size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacitySweep, ::testing::Values(2, 4, 16, 64, 512),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Blocks" + std::to_string(info.param);
                         });

// --- SNFS end-to-end vs. packet loss -----------------------------------------

class SnfsLossSweep : public ::testing::TestWithParam<int> {};

TEST_P(SnfsLossSweep, DataIntegritySurvivesLossyNetwork) {
  net::NetworkParams net;
  net.loss_rate = GetParam() / 100.0;
  World w(ServerProtocol::kSnfs, 2, {}, {}, net);
  w.client(0).MountSnfs("/data", w.server->address(), w.server->root());
  w.client(1).MountSnfs("/data", w.server->address(), w.server->root());
  bool done = false;
  w.simulator.Spawn([](World& w, bool& done) -> sim::Task<void> {
    auto payload = TestPattern(5 * cache::kBlockSize, 99);
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, payload);  // callbacks + retransmission deliver intact data
    }
    done = true;
  }(w, done));
  w.simulator.RunUntil(sim::Sec(600));
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(LossRates, SnfsLossSweep, ::testing::Values(0, 10, 25),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Loss" + std::to_string(info.param) + "pct";
                         });

}  // namespace
