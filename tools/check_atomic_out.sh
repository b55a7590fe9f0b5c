#!/bin/sh
# Failure gate for torsim's file output, which goes to a temp file
# beside the destination and is renamed over it only after every write
# and the close succeeded:
#   1. `--out` naming an existing directory exits non-zero with an
#      `error:` line and leaves no temp file behind;
#   2. a write cut short by the file-size limit (what a full disk looks
#      like to the writer) exits non-zero, leaves the previous file
#      byte-identical, and leaves no temp file behind;
#   3. the same holds for a `--csv` table.
set -eu

bin="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/out" "$work/out/target"

expect_failure() {
  if "$@" >"$work/log" 2>&1; then
    echo "error: '$*' exited 0" >&2
    exit 1
  fi
  if ! grep -q '^error: ' "$work/log"; then
    echo "error: no 'error:' line from '$*'; output was:" >&2
    cat "$work/log" >&2
    exit 1
  fi
}

expect_left() {
  left="$(ls -A "$work/out" | tr '\n' ' ')"
  if [ "$left" != "$1" ]; then
    echo "error: $2: output directory holds '$left', expected '$1'" >&2
    exit 1
  fi
}

expect_failure "$bin" consensus --hours 2 --out "$work/out/target"
[ -d "$work/out/target" ] || { echo "error: directory replaced" >&2; exit 1; }
expect_left "target " "--out onto a directory"
rmdir "$work/out/target"

"$bin" consensus --hours 2 --out "$work/out/c.txt" >/dev/null
cp "$work/out/c.txt" "$work/good.txt"
expect_left "c.txt " "successful write"
# The archive is ~35 KB; a 512-byte file-size limit fails the write with
# EFBIG (SIGXFSZ ignored, as a shell trap '' leaves it for the child).
expect_failure sh -c "trap '' XFSZ; ulimit -f 1; exec \"\$0\" \"\$@\"" \
  "$bin" consensus --hours 4 --out "$work/out/c.txt"
cmp -s "$work/good.txt" "$work/out/c.txt" ||
  { echo "error: failed write changed the previous file" >&2; exit 1; }
expect_left "c.txt " "write past the file-size limit"

# The Table II ranking CSV is ~3 KB at this scale.
"$bin" popularity --scale 0.02 --csv "$work/out/p.csv" >/dev/null
cp "$work/out/p.csv" "$work/good.csv"
expect_failure sh -c "trap '' XFSZ; ulimit -f 1; exec \"\$0\" \"\$@\"" \
  "$bin" popularity --scale 0.02 --csv "$work/out/p.csv"
cmp -s "$work/good.csv" "$work/out/p.csv" ||
  { echo "error: failed --csv write changed the previous file" >&2; exit 1; }
expect_left "c.txt p.csv " "--csv write past the file-size limit"
echo "atomic --out/--csv: failed writes left the destination and no temp file"
