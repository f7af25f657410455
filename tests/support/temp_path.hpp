// Temp paths for tests that touch the filesystem.
//
// ctest runs every TEST as its own process, several at once under -j, so
// a fixed path under the temp dir is shared by whatever runs in parallel
// and one test can wipe another's files mid-run.  Keying the path on the
// pid gives each test process its own.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

namespace nitro::testing {

/// `<tmp>/<name>_<pid>`: unique to this test process.  Not created.
inline std::string unique_temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "_" + std::to_string(::getpid())))
      .string();
}

/// unique_temp_path(name), emptied: any leftover of a crashed earlier
/// run of this process id is removed.
inline std::string fresh_temp_dir(const std::string& name) {
  const std::string dir = unique_temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace nitro::testing
