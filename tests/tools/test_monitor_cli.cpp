// The built nitro_monitor, driven as a user would: a second run with the
// same --checkpoint-dir restores from the chain, --require-restore on an
// empty directory exits 3, and bad flags exit 2 instead of quietly
// changing the experiment.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "support/temp_path.hpp"

namespace {

const std::string kCapture = std::string(NITRO_TEST_DATA_DIR) + "/sample_caida512.pcap";

struct MonitorRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

MonitorRun monitor(const std::string& args) {
  const std::string cmd = std::string("'") + NITRO_MONITOR_BIN + "' " + args + " 2>&1";
  MonitorRun run;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) run.output.append(buf, n);
  const int status = ::pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string replay(const std::string& ckpt_dir) {
  return "--ingest pcap:'" + kCapture + "' --epochs 2 --checkpoint-dir '" + ckpt_dir + "'";
}

TEST(MonitorCli, SecondRunRestoresFromTheChain) {
  const std::string dir = nitro::testing::fresh_temp_dir("nitro_cli_chain");
  const MonitorRun first = monitor(replay(dir));
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_EQ(first.output.find("restored"), std::string::npos) << first.output;

  const MonitorRun second = monitor(replay(dir) + " --require-restore");
  ASSERT_EQ(second.exit_code, 0) << second.output;
  EXPECT_NE(second.output.find("from chain"), std::string::npos) << second.output;
  std::filesystem::remove_all(dir);
}

TEST(MonitorCli, RequireRestoreOnAnEmptyDirectoryExits3) {
  const std::string dir = nitro::testing::fresh_temp_dir("nitro_cli_empty");
  const MonitorRun run = monitor(replay(dir) + " --require-restore");
  EXPECT_EQ(run.exit_code, 3) << run.output;
  std::filesystem::remove_all(dir);
}

TEST(MonitorCli, FrameV1ChainFailsRestoreLoudly) {
  // Frame version 1 held dense counter rows.  A chain left on disk by
  // such a build (modelled by retagging this build's frames) is rejected
  // by version at restore: counted, then a fresh start, or exit 3 under
  // --require-restore.  Never a silently misread sketch.
  const std::string dir = nitro::testing::fresh_temp_dir("nitro_cli_v1");
  const std::string stats = nitro::testing::unique_temp_path("nitro_cli_v1_stats.json");
  ASSERT_EQ(monitor(replay(dir)).exit_code, 0);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // frame header: magic u32, then the version u32
    const char v1[4] = {1, 0, 0, 0};
    f.write(v1, sizeof v1);
  }

  const MonitorRun strict = monitor(replay(dir) + " --require-restore");
  EXPECT_EQ(strict.exit_code, 3) << strict.output;
  EXPECT_NE(strict.output.find("frame: unsupported version 1"), std::string::npos)
      << strict.output;

  const MonitorRun lenient =
      monitor(replay(dir) + " --stats-out '" + stats + "' --stats-format json");
  ASSERT_EQ(lenient.exit_code, 0) << lenient.output;
  EXPECT_EQ(lenient.output.find("restored"), std::string::npos) << lenient.output;
  std::ifstream in(stats);
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"nitro_checkpoint_restore_failures_total\": 1"), std::string::npos)
      << json;
  std::filesystem::remove_all(dir);
  std::filesystem::remove(stats);
}

TEST(MonitorCli, CaptureReplayBuildsNoSyntheticTrace) {
  const MonitorRun run = monitor("--ingest pcap:'" + kCapture + "' --epochs 1");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.find("generating"), std::string::npos) << run.output;
}

TEST(MonitorCli, BadFlagsExit2) {
  for (const char* args : {"--packets 1e6", "--p 7", "--mode bogus", "--separate-thread",
                           "--epochs 0", "--workers two", "--burst 0", "--stats-interval 0",
                           "--export-to nowhere", "--recover-from-collector",
                           "--master-key 0xzz", "--master-key 0x"}) {
    const MonitorRun run = monitor(args);
    EXPECT_EQ(run.exit_code, 2) << args << "\n" << run.output;
  }
  // A hex key may carry a 0x prefix.
  const MonitorRun hex = monitor("--ingest pcap:'" + kCapture + "' --epochs 1 --master-key 0x1");
  EXPECT_EQ(hex.exit_code, 0) << hex.output;
}

}  // namespace
