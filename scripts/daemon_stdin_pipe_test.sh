#!/bin/sh
# stdin transport check for the mris_serve daemon (docs/DAEMON.md).
#
# Usage: daemon_stdin_pipe_test.sh <mris_serve-binary> <scratch-dir>
#
# Serves one packed stream twice: from a file (--in) and from a pipe on
# stdin (cat stream.bin | mris_serve run).  The file is read in whole
# chunks, stdin in whatever pieces the pipe holds; the CSV sink and the
# placement checksum must be byte-identical.
set -eu

BIN="$1"
DIR="$2"
JOBS=300
MACHINES=4
RESOURCES=4

rm -rf "$DIR"
mkdir -p "$DIR"
cd "$DIR"

"$BIN" pack --synthetic --jobs "$JOBS" --seed 23 --machines "$MACHINES" \
  --out stream.bin > /dev/null

run() {
  "$BIN" run --machines "$MACHINES" --resources "$RESOURCES" \
    --scheduler mris-inc --sink csv "$@"
}

run --in stream.bin --sink-out file.csv > file.out
cat stream.bin | run --sink-out stdin.csv > stdin.out

if ! cmp -s file.csv stdin.csv; then
  echo "FAIL: stdin sink output differs from the --in run" >&2
  diff file.csv stdin.csv | head -20 >&2 || true
  exit 1
fi
file_sum=$(grep '^checksum' file.out)
stdin_sum=$(grep '^checksum' stdin.out)
if [ "$file_sum" != "$stdin_sum" ]; then
  echo "FAIL: checksum mismatch: '$file_sum' vs '$stdin_sum'" >&2
  exit 1
fi
if [ "$(wc -l < file.csv)" -lt "$JOBS" ]; then
  echo "FAIL: sink holds fewer than $JOBS lines" >&2
  exit 1
fi

echo "OK: stdin and --in runs are byte-identical ($file_sum)"
