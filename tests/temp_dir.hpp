// Per-test scratch directories. Every test that writes a file or binds
// a socket gets a fresh directory of its own (mkdtemp under
// ::testing::TempDir(), which honours $TEST_TMPDIR), so no two test
// processes ever share a path — the suite stays hermetic under
// `ctest -j`, `--repeat until-fail` and `--schedule-random`. The
// directory and everything in it is removed when the helper goes out
// of scope. tools/check_test_paths.py keeps literal temp paths out of
// tests/.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace torsim::test_support {

class TempDir {
 public:
  TempDir() {
    std::string pattern = ::testing::TempDir();
    if (!pattern.empty() && pattern.back() != '/') pattern += '/';
    pattern += "torsim_XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed for " + pattern);
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

  /// `name` inside the directory.
  std::string file(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace torsim::test_support
