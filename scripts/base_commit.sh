# Sourced by perf_gate.sh and bench_compare.sh: the one rule for which commit
# this checkout is compared against.
#
# pick_base sets base (a commit, empty when none can be found) and base_rule
# (why it was picked):
#   - BASE, when set, wins;
#   - on main, the parent of the change: HEAD while tracked files have
#     uncommitted changes, staged or not (they are the change), HEAD~1 once
#     they are committed (untracked files are not part of the change);
#   - on any other ref (a branch, or CI's detached merge ref), the merge base
#     with origin/main, falling back to HEAD~1 when there is no origin/main.
pick_base() {
    if [ -n "${BASE:-}" ]; then
        base=$BASE
        base_rule="BASE is set"
    elif [ "$(git rev-parse --abbrev-ref HEAD 2>/dev/null || true)" = main ]; then
        if ! git diff --quiet HEAD; then
            base=$(git rev-parse HEAD)
            base_rule="on main with uncommitted changes: HEAD"
        else
            base=$(git rev-parse --verify -q HEAD~1 || true)
            base_rule="on main with a clean tree: HEAD~1"
        fi
    elif base=$(git merge-base origin/main HEAD 2>/dev/null); then
        base_rule="off main: merge base with origin/main"
    else
        base=$(git rev-parse --verify -q HEAD~1 || true)
        base_rule="off main, no origin/main: HEAD~1"
    fi
}

# tree_is_base succeeds when the tree under test is the base commit itself:
# base is HEAD and no tracked file differs from HEAD, staged or not.
tree_is_base() {
    [ "$base" = "$(git rev-parse HEAD)" ] && git diff --quiet HEAD
}
