// Fixture for tools/check_test_paths.py: the blessed patterns. A file
// lives in a per-test TempDir, and a bare "/tmp" names the directory
// itself (a path-is-a-directory rejection test).
#include "temp_dir.hpp"

void writes_into_its_own_directory() {
  const torsim::test_support::TempDir dir;
  write_csv(dir.file("rows.csv"));
}

void rejects_a_directory() { expect_rejected("/tmp"); }
