#include "trace/trace_io.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "trace/workloads.hpp"
#include "support/temp_path.hpp"

namespace nitro::trace {
namespace {

std::string temp_path(const char* name) { return nitro::testing::unique_temp_path(name); }

class TraceIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : created_) std::filesystem::remove(p);
  }
  std::string track(std::string p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(TraceIoTest, RoundTripsTrace) {
  WorkloadSpec spec;
  spec.packets = 10000;
  spec.flows = 500;
  spec.seed = 1;
  const auto original = caida_like(spec);
  const auto path = track(temp_path("nitro_trace_roundtrip.ntr"));
  save_trace(path, original);
  const auto loaded = load_trace(path);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].key, original[i].key);
    EXPECT_EQ(loaded[i].wire_bytes, original[i].wire_bytes);
    EXPECT_EQ(loaded[i].ts_ns, original[i].ts_ns);
  }
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  const auto path = track(temp_path("nitro_trace_empty.ntr"));
  save_trace(path, {});
  EXPECT_TRUE(load_trace(path).empty());
}

TEST_F(TraceIoTest, LargeTraceCrossesChunkBoundary) {
  // > 65536 records exercises the chunked writer/reader.
  const auto original = uniform_flows(70000, 100, 2);
  const auto path = track(temp_path("nitro_trace_large.ntr"));
  save_trace(path, original);
  const auto loaded = load_trace(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.front().key, original.front().key);
  EXPECT_EQ(loaded.back().key, original.back().key);
  EXPECT_EQ(loaded[65536].key, original[65536].key);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_trace("/nonexistent/dir/nope.ntr"), std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicThrows) {
  const auto path = track(temp_path("nitro_trace_badmagic.ntr"));
  std::ofstream out(path, std::ios::binary);
  const char junk[16] = "not a trace....";
  out.write(junk, sizeof junk);
  out.close();
  EXPECT_THROW((void)load_trace(path), std::runtime_error);
}

TEST_F(TraceIoTest, NoTempFileLeftBehindAfterSave) {
  const auto path = track(temp_path("nitro_trace_notmp.ntr"));
  save_trace(path, uniform_flows(100, 10, 4));
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(TraceIoTest, RewriteReplacesViaRenameNotInPlace) {
  // Regression: the old writer opened the destination with O_TRUNC and
  // wrote in place — same inode before and after, and a crash mid-write
  // left a truncated file.  The atomic path writes a sibling tmp file and
  // rename(2)s it over the destination, which necessarily installs a
  // fresh inode.  (Unlike the permissions-based test below, this holds
  // even when running as root.)
  const auto path = track(temp_path("nitro_trace_inode.ntr"));
  save_trace(path, uniform_flows(200, 20, 7));
  struct stat before{};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  const auto rewritten = uniform_flows(300, 30, 8);
  save_trace(path, rewritten);
  struct stat after{};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_NE(before.st_ino, after.st_ino)
      << "rewrite reused the destination inode: save_trace is writing in "
         "place instead of tmp+rename";
  EXPECT_EQ(load_trace(path).size(), rewritten.size());
}

TEST_F(TraceIoTest, FailedRewriteLeavesExistingTraceIntact) {
  // Regression: save_trace used to open the destination with O_TRUNC and
  // write in place, so any failure mid-write destroyed the previous trace
  // (worse: a crash could leave a truncated file behind a valid magic).
  // The atomic tmp+fsync+rename path must leave the old file untouched
  // when the rewrite cannot complete — forced here by making the
  // directory unwritable, which kills the tmp-file creation.
  if (::geteuid() == 0) GTEST_SKIP() << "directory permissions do not bind root";
  namespace fs = std::filesystem;
  const fs::path dir = nitro::testing::unique_temp_path("nitro_trace_atomic_dir");
  fs::create_directory(dir);
  const auto path = (dir / "trace.ntr").string();
  const auto original = uniform_flows(500, 50, 5);
  save_trace(path, original);

  fs::permissions(dir, fs::perms::owner_read | fs::perms::owner_exec,
                  fs::perm_options::replace);
  EXPECT_THROW(save_trace(path, uniform_flows(9999, 10, 6)), std::runtime_error);
  fs::permissions(dir, fs::perms::owner_all, fs::perm_options::replace);

  // The original survives, complete and loadable.
  const auto loaded = load_trace(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.front().key, original.front().key);
  EXPECT_EQ(loaded.back().key, original.back().key);
  fs::remove_all(dir);
}

TEST_F(TraceIoTest, TruncatedFileThrows) {
  WorkloadSpec spec;
  spec.packets = 1000;
  spec.seed = 3;
  const auto original = caida_like(spec);
  const auto path = track(temp_path("nitro_trace_trunc.ntr"));
  save_trace(path, original);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW((void)load_trace(path), std::runtime_error);
}

}  // namespace
}  // namespace nitro::trace
