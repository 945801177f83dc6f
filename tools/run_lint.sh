#!/usr/bin/env sh
# Code-level static analysis: clang-tidy over every translation unit in
# compile_commands.json, plus a clang-format dry-run over the tree. This is
# the *code* half of the lint story; the *design* half is presp-lint (see
# tools/run_tier1.sh, which gates the shipped example configs on it).
#
# Both tools are optional in minimal containers: when clang-tidy or
# clang-format is not installed the corresponding stage is skipped with a
# notice (exit 0), so the script can run in CI images with and without the
# LLVM toolchain. When the tools are present, any finding is fatal.
#
# Usage: tools/run_lint.sh
# Environment:
#   BUILD_DIR    build directory with compile_commands.json (default: build)
#   CLANG_TIDY   clang-tidy binary (default: clang-tidy)
#   CLANG_FORMAT clang-format binary (default: clang-format)
set -eu

BUILD_DIR=${BUILD_DIR:-build}
CLANG_TIDY=${CLANG_TIDY:-clang-tidy}
CLANG_FORMAT=${CLANG_FORMAT:-clang-format}

cd "$(dirname "$0")/.."

status=0

if command -v "$CLANG_TIDY" >/dev/null 2>&1; then
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "run_lint: configuring $BUILD_DIR for compile_commands.json"
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  echo "== clang-tidy (compile_commands.json, WarningsAsErrors) =="
  # Every first-party TU; third-party code never enters src/tools/tests.
  files=$(find src tools tests -name '*.cpp' | sort)
  if ! "$CLANG_TIDY" -p "$BUILD_DIR" --quiet $files; then
    status=1
  fi
  # Focused concurrency pass over the thread-pool and fleet layers:
  # the general run above uses the repo .clang-tidy profile; this one
  # forces the concurrency-* and bugprone-* families on so a profile
  # edit can never silently drop them for the concurrency core.
  echo "== clang-tidy (concurrency-*, bugprone-* over src/exec src/fleet) =="
  conc_files=$(find src/exec src/fleet -name '*.cpp' | sort)
  if ! "$CLANG_TIDY" -p "$BUILD_DIR" --quiet \
      --checks='-*,concurrency-*,bugprone-*' \
      --warnings-as-errors='concurrency-*,bugprone-*' $conc_files; then
    status=1
  fi
else
  echo "run_lint: clang-tidy not installed, skipping the tidy stage"
fi

if command -v "$CLANG_FORMAT" >/dev/null 2>&1; then
  echo "== clang-format (dry run) =="
  if ! find src tools tests -name '*.cpp' -o -name '*.hpp' | sort |
      xargs "$CLANG_FORMAT" --dry-run --Werror; then
    status=1
  fi
else
  echo "run_lint: clang-format not installed, skipping the format stage"
fi

if [ "$status" -ne 0 ]; then
  echo "run_lint: findings above must be fixed"
  exit 1
fi
echo "run_lint: clean"
