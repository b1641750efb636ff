// Per-process scratch file names for tests.
//
// ctest runs the aggregate entries (explore_smoke, simsan_selfcheck) beside
// the per-case entries of the same binaries, so one test can run in two
// processes at once. A fixed name under testing::TempDir() lets them
// overwrite each other's files mid-test; prefixing the process id keeps
// every process on its own file.
#pragma once

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace pm2::test {

/// @p name under testing::TempDir(), prefixed with this process's id.
inline std::string temp_file(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

}  // namespace pm2::test
