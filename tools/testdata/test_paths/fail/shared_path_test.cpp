// Fixture for tools/check_test_paths.py: a fixed path that every
// concurrent run of this test would share. The gate must reject it.
void writes_to_a_shared_path() {
  write_csv("/tmp/torsim_shared.csv");
}
