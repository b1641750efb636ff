// Integration: pingpong correctness over the full stack, across the
// locking x waiting x progression configuration matrix.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "nmad/cluster.hpp"

namespace pm2::nm {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return v;
}

TEST(Pingpong, BasicEagerRoundtrip) {
  ClusterConfig cfg;
  Cluster world(cfg);
  const auto msg = pattern(64, 1);
  bool ok = false;
  world.spawn(0, [&] {
    Core& c = world.core(0);
    Gate* g = world.gate(0, 1);
    c.send(g, /*tag=*/7, msg.data(), msg.size());
    std::vector<std::uint8_t> back(64);
    const std::size_t n = c.recv(g, 8, back.data(), back.size());
    ok = (n == 64) && back == pattern(64, 2);
  });
  world.spawn(1, [&] {
    Core& c = world.core(1);
    Gate* g = world.gate(1, 0);
    std::vector<std::uint8_t> buf(64);
    const std::size_t n = c.recv(g, 7, buf.data(), buf.size());
    EXPECT_EQ(n, 64u);
    EXPECT_EQ(buf, msg);
    const auto reply = pattern(64, 2);
    c.send(g, 8, reply.data(), reply.size());
  });
  world.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(world.core(0).active_requests(), 0);
  EXPECT_EQ(world.core(1).active_requests(), 0);
}

struct MatrixParam {
  LockMode lock;
  WaitMode wait;
  ProgressMode progress;
};

std::string param_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  std::string s = to_string(info.param.lock);
  s += "_";
  s += to_string(info.param.wait);
  s += "_";
  s += to_string(info.param.progress);
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

class PingpongMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(PingpongMatrix, DataIntegrityAcrossSizes) {
  const MatrixParam p = GetParam();
  ClusterConfig cfg;
  cfg.nm.lock = p.lock;
  cfg.nm.wait = p.wait;
  cfg.nm.progress = p.progress;
  // The progression thread / tasklets live on core 1; the hook modes keep
  // polling from any core.
  if (p.progress == ProgressMode::kPollThread ||
      p.progress == ProgressMode::kTaskletOffload) {
    cfg.nm.poll_core = 1;
  }
  Cluster world(cfg);

  const std::vector<std::size_t> sizes = {0, 1, 13, 256, 2048, 40000};
  int verified = 0;

  if (p.progress == ProgressMode::kPollThread) {
    world.core(0).start_poll_thread();
    world.core(1).start_poll_thread();
  }

  world.spawn(0, [&] {
    Core& c = world.core(0);
    Gate* g = world.gate(0, 1);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto msg = pattern(sizes[i], static_cast<std::uint8_t>(i));
      c.send(g, 100 + i, msg.data(), msg.size());
      std::vector<std::uint8_t> back(sizes[i] + 16, 0xAA);
      const std::size_t n = c.recv(g, 200 + i, back.data(), back.size());
      EXPECT_EQ(n, sizes[i]);
      back.resize(sizes[i]);
      EXPECT_EQ(back, pattern(sizes[i], static_cast<std::uint8_t>(i + 1)))
          << "size " << sizes[i];
      ++verified;
    }
    if (p.progress == ProgressMode::kPollThread) world.core(0).stop_poll_thread();
  }, "ping", 0);

  world.spawn(1, [&] {
    Core& c = world.core(1);
    Gate* g = world.gate(1, 0);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::vector<std::uint8_t> buf(sizes[i] + 16, 0xBB);
      const std::size_t n = c.recv(g, 100 + i, buf.data(), buf.size());
      EXPECT_EQ(n, sizes[i]);
      buf.resize(sizes[i]);
      EXPECT_EQ(buf, pattern(sizes[i], static_cast<std::uint8_t>(i)));
      const auto reply = pattern(sizes[i], static_cast<std::uint8_t>(i + 1));
      c.send(g, 200 + i, reply.data(), reply.size());
    }
    if (p.progress == ProgressMode::kPollThread) world.core(1).stop_poll_thread();
  }, "pong", 0);

  world.run();
  EXPECT_EQ(verified, static_cast<int>(sizes.size()));
  EXPECT_EQ(world.core(0).active_requests(), 0);
  EXPECT_EQ(world.core(1).active_requests(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    LockWaitProgress, PingpongMatrix,
    ::testing::Values(
        MatrixParam{LockMode::kNone, WaitMode::kBusy, ProgressMode::kAppDriven},
        MatrixParam{LockMode::kCoarse, WaitMode::kBusy, ProgressMode::kAppDriven},
        MatrixParam{LockMode::kFine, WaitMode::kBusy, ProgressMode::kAppDriven},
        MatrixParam{LockMode::kCoarse, WaitMode::kBusy, ProgressMode::kPiomanHooks},
        MatrixParam{LockMode::kFine, WaitMode::kBusy, ProgressMode::kPiomanHooks},
        MatrixParam{LockMode::kCoarse, WaitMode::kPassive, ProgressMode::kPiomanHooks},
        MatrixParam{LockMode::kFine, WaitMode::kPassive, ProgressMode::kPiomanHooks},
        MatrixParam{LockMode::kFine, WaitMode::kFixedSpin, ProgressMode::kPiomanHooks},
        MatrixParam{LockMode::kFine, WaitMode::kBusy, ProgressMode::kPollThread},
        MatrixParam{LockMode::kFine, WaitMode::kBusy, ProgressMode::kTaskletOffload},
        MatrixParam{LockMode::kFine, WaitMode::kBusy, ProgressMode::kIdleCoreOffload}),
    param_name);

}  // namespace
}  // namespace pm2::nm
