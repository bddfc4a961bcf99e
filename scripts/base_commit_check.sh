#!/usr/bin/env bash
# Checks the base-commit rule of scripts/base_commit.sh in a throwaway git
# repository: which base pick_base chooses on main with a clean tree, with
# staged-only and unstaged changes, with a stray untracked file, with BASE
# set, and off main; and that tree_is_base (the perf gate's "nothing to
# compare" test) holds only when the tree really is the base commit.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
. "$here/base_commit.sh"

repo=$(mktemp -d)
trap 'rm -rf "$repo"' EXIT
cd "$repo"
git init -q -b main
git config user.email check@example.com
git config user.name check
echo 1 >f && git add f && git commit -qm one
echo 2 >f && git commit -qam two
c1=$(git rev-parse HEAD~1)
c2=$(git rev-parse HEAD)

fail=0
# expect <label> <want base> <want tree_is_base: yes|no>
expect() {
    local got_same=no
    pick_base
    if tree_is_base; then
        got_same=yes
    fi
    if [ "$base" != "$2" ] || [ "$got_same" != "$3" ]; then
        echo "base-commit-check: $1: got base=${base:0:7} ($base_rule) tree_is_base=$got_same, want base=${2:0:7} tree_is_base=$3" >&2
        fail=1
    else
        echo "base-commit-check: $1: ${base:0:7} ($base_rule)"
    fi
}

expect "clean main" "$c1" no
echo stray >untracked
expect "clean main, untracked file" "$c1" no
echo 3 >f && git add f
expect "main, staged-only change" "$c2" no
git reset -q && echo 3 >f
expect "main, unstaged change" "$c2" no
git checkout -q f
BASE=$c2 expect "BASE=HEAD, clean" "$c2" yes
BASE=$c1 expect "BASE set" "$c1" no
git checkout -qb topic
expect "off main, no origin/main" "$c1" no

exit "$fail"
