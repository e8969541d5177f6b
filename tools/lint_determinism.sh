#!/usr/bin/env bash
# Determinism lint for the hot-path crates (sim, proto, fabric, mc, core),
# the one-stream rule for telemetry (proto, core), the grant rule for access
# state (proto), the arithmetic rule for the applications, the
# no-environment rule for every library crate, the direction of the tool
# crates' dependency edge, the one way in to the application registry, the
# one build, the one run description, the one wire format, the one door
# to the checker and the one place a message is timed.
#
# The whole stack depends on bit-identical replay: the engine's state
# hashes, the model checker's replay-based exploration, and the golden
# tests all assume a run is a pure function of its inputs. Three construct
# families break that, the first two silently:
#
#   1. Wall-clock time (SystemTime::now / Instant::now) — never legal in
#      these crates; virtual time comes from the engine. No allowlist.
#   2. HashMap/HashSet spelled directly — std's default hasher is SipHash
#      under a per-process random key, so iteration order varies per
#      process and any iteration that feeds results, digests, or message
#      order is nondeterministic. A keyed table is spelled
#      `dsm_sim::rng::StableMap` / `StableSet` instead: the same containers
#      keyed through `StableHasher`, which has no key at all. A fixed
#      hasher is enough because the nondeterminism was only ever the key —
#      given one hash function, a table's layout, and so its iteration
#      order, is a function of the sequence of inserts and removes, which
#      a deterministic run repeats exactly on every host (the digests stay
#      XOR-folds regardless, so they do not depend on that order either).
#      It is also cheaper: a few multiplies per integer key. Files whose
#      every use of a std-keyed container is provably order-insensitive
#      (keyed lookup, membership tests) are listed in
#      tools/lint_determinism_allow.txt with a justification; everything
#      else fails.
#   3. Threads under a cell (std::thread, Mutex, Condvar, catch_unwind,
#      unsafe) in sim, core, proto and fabric — a run is one event
#      loop on the caller's thread, and every host-side cost the threaded
#      engine had (hand-off, poison cascades, scheduler placement) came in
#      through these. Nothing a world holds is `Send` any more (the fault
#      oracle and the checker lost the bound with the last thread), so
#      nothing in these crates knows threads exist. crates/mc/src stays
#      out: `DsmProgram` is `Send + Sync`, so `MicroRunner`'s trace needs
#      a `Mutex`. Parallelism is across runs: the worker pool in
#      crates/scenario, which the bench sweeps share. No allowlist.
#
# A fourth rule keeps "the counters agree with the trace" true by
# construction:
#
#   4. One stream. A protocol fact is reported once, through
#      `ProtoWorld::emit`, and every sink folds that call. So in non-test
#      code of crates/proto/src and crates/core/src (each file up to its
#      `#[cfg(test)]` module) nothing writes or mutably borrows `stats[..]`
#      or `region_stats[..]`, notes a fault in the sharing profile
#      (`.note(`) or calls `obs.record(` except inside `ProtoWorld::emit`
#      (plus the statistics reset in `ProtoWorld::begin_measurement`), and
#      nothing calls `span_wake(` except `ProtoWorld::wake`. No allowlist.
#
# A fifth keeps the lazily loaded golden image sound:
#
#   5. Grants go through `grant`. A node's copy of a block is filled from
#      the golden image when the node is first granted access to it, so in
#      non-test code of crates/proto/src `access.set(` appears with
#      `Access::Invalid` or inside `ProtoWorld::grant` only: any other
#      raise of access state could hand a node bytes it never received.
#      No allowlist.
#
# A sixth keeps the applications' arithmetic the arithmetic the pinned
# images were computed with:
#
#   6. No fused multiply-add in the applications. In non-test code of
#      crates/apps/src, `mul_add` does not appear: it rounds once where
#      `a - x * y` rounds twice, so it would change the sequential image
#      every parallel cell is verified against, and the images the tests
#      pin. A host kernel may be rewritten only operation for operation.
#      No allowlist.
#
# A seventh keeps a run a function of the configuration its caller built:
#
#   7. The library reads no environment. Under crates/*/src, `env::var`,
#      `env::var_os`, `env::vars` and `env::vars_os` appear only in a
#      binary (`src/bin/`) and in crates/bench/src/cli.rs, which parses the
#      two variables the tools honour (`DSM_TRACE`, `DSM_BENCH_JOBS`) under
#      the rule for a flag: a malformed value is one line naming it, and
#      exit status 2. A constructor that reads the shell changes every
#      configuration built anywhere — the paper's grid, the golden
#      fixtures, the benchmark — without appearing in any of them; a flag
#      or a builder method says what it changes. No allowlist.
#
# An eighth keeps the model checker's cached fingerprints sound:
#
#   8. No interior mutability in fingerprinted state. Each component of a
#      `ProtoWorld` and of the checker caches its fingerprint in a
#      `dsm_sim::rng::Fingerprinted` until its next mutable borrow, so a
#      change that arrives through a shared borrow would leave a stale
#      fingerprint standing and merge two different states. In non-test code
#      of crates/proto/src (the checker included) and crates/fabric/src,
#      `Cell`, `RefCell`, `OnceCell` and `UnsafeCell` do not appear (the
#      wrapper's own `Cell` lives in crates/sim). Test code is an item under a
#      `#[cfg(test)]` — a test module, or a test-only `thread_local!` — up
#      to the line that closes it at the attribute's indentation. No
#      allowlist.
#
# A ninth keeps the tool crates layered:
#
#   9. Nothing depends on dsm-bench. Under crates/, no Cargo.toml but
#      dsm-bench's own names `dsm-bench`: the bench crate holds the report
#      code and the binaries, links dsm-mc, and builds on dsm-scenario —
#      never the other way round. An edge back would link all of that into
#      the crate below it. No allowlist.
#
# A tenth keeps the application registry the only way to build one:
#
#  10. No application built around the registry. Outside crates/apps/src,
#      non-test code under crates/*/src does not call the constructor
#      (`new` or `try_new`) of an application the registry lists — the
#      constructors crates/apps/src/registry.rs itself calls. It names
#      each application once, with its shapes at both sizes and its checked
#      constructor, and `build_app`, `app_sized` and `AppSpec::build` read
#      it; a direct call is a second copy of a shape or a default that the
#      table no longer governs. No allowlist.
#
# An eleventh keeps the workspace one build:
#
#  11. No cargo features. Under crates/*/src no line tests a feature
#      (`cfg(feature ..)`, `cfg_attr(feature ..)`, `cfg!(feature ..)`, or
#      one inside `any`/`all`/`not`), and no manifest (the root's, a
#      crate's, perf's) has a `[features]` table. A gated site is code that
#      tier-1 never compiles, and a setting it reads silently does nothing
#      in the default build; a behaviour a test must reach is a run-time
#      setting, as `RunConfig::mutation` is. No allowlist.
#
# A twelfth keeps a run described once:
#
#  12. No run configured by hand in the tools. Under crates/bench/src and
#      crates/scenario/src, non-test code calls `RunConfig::new(` only in
#      `RunSpec::to_config` (crates/scenario/src/run.rs). A run the tools
#      make is a `RunSpec`, whose line `diag` replays; a configuration
#      built beside it is a run no tool can print or re-run. No allowlist.
#
# A thirteenth keeps the wire format in one place:
#
#  13. A message states its own size. Under crates/proto/src no
#      `const [A-Z_]*_BYTES` item appears outside msg.rs, where
#      `ProtoMsg::wire_bytes` reads the wire format's byte constants: a
#      size constant beside a handler is a second copy of what a message
#      costs, which the one table no longer governs. No allowlist.
#
# A fourteenth keeps the checker reading the world it checks:
#
#  14. One door to the checker. In non-test code of crates/proto/src,
#      `.check` (the world's `Option<Box<RunChecker>>`) appears only in
#      world.rs, which installs the checker (`with_check`), opens the door
#      (`ProtoWorld::audit`) and folds its digest into the fingerprint, and
#      under check/. A hook site is `w.audit(|c, w| c.hook(w, ..))`: the
#      hook reads vector times, node copies, access rights and the layout
#      from the world it is handed, so a borrow of the field elsewhere is a
#      second way in, with the world's state copied into arguments again.
#      config.rs is exempt, and so is `cfg.check` anywhere: that is
#      `RunConfig`'s flag asking for a checker, not the checker. No
#      allowlist.
#
# A fifteenth keeps the notification model stated once:
#
#  15. One place posts. In non-test code of crates/proto/src, `.post(`
#      appears only in world.rs: `ProtoWorld::send` puts a message on the
#      wire, the fabric path posts its frames, acks and timers, and
#      `deliver` re-posts an arrival for the time `service_time` gives it.
#      A handler that posted an envelope itself would time a message around
#      that decision, so the order the model serves messages in would no
#      longer be written in one place. No allowlist.
#
# Comment lines are ignored. Run from anywhere; CI runs it on every push.

set -u
cd "$(dirname "$0")/.."

DIRS="crates/sim/src crates/proto/src crates/fabric/src crates/mc/src crates/core/src"
ONE_THREAD_DIRS="crates/sim/src crates/core/src crates/proto/src crates/fabric/src"
ALLOW="tools/lint_determinism_allow.txt"
status=0

# Print "file:lineno:text" matches for an extended regex under the given
# directories (default: $DIRS), with lines whose code part is a // comment
# filtered out.
matches() {
  grep -rn --include='*.rs' -E "$1" ${2:-$DIRS} 2>/dev/null |
    awk -F':' '{
      text = $0
      sub(/^[^:]*:[^:]*:/, "", text)
      sub(/^[[:space:]]*/, "", text)
      if (text !~ /^\/\//) print $0
    }'
}

hits=$(matches 'SystemTime::now|Instant::now')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: wall-clock time in a deterministic crate (no allowlist for this rule)"
  status=1
fi

hits=$(matches '\bHashMap\b|\bHashSet\b')
if [ -n "$hits" ]; then
  allowed=$(grep -v '^#' "$ALLOW" 2>/dev/null | sed 's/[[:space:]]*$//' | grep -v '^$')
  while IFS= read -r hit; do
    file=${hit%%:*}
    if ! printf '%s\n' "$allowed" | grep -qFx "$file"; then
      echo "$hit"
      echo "lint_determinism: $file spells HashMap/HashSet (use dsm_sim::rng::StableMap/StableSet) and is not in $ALLOW"
      status=1
    fi
  done <<<"$hits"
fi

hits=$(matches 'std::thread|\bMutex\b|\bCondvar\b|catch_unwind|\bunsafe\b' "$ONE_THREAD_DIRS")
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: threads, locks, unwinding or unsafe under a cell (no allowlist for this rule)"
  status=1
fi

# Rule 4. `fn` tracks the enclosing function by its most recent `fn name`
# line; the three exempt functions live in crates/proto/src/world.rs.
hits=$(find crates/proto/src crates/core/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { in_tests = 0; fn = "" }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  {
    world = FILENAME ~ /proto\/src\/world\.rs$/
    counters = /(region_)?stats\[[^]]*\][a-z_.]*[[:space:]]*([-+]?=)([^=]|$)/ || /&mut [a-z_.]*stats\[/
    if (counters && !(world && (fn == "emit" || fn == "begin_measurement"))) print FILENAME ":" FNR ":" $0
    else if ((/\.note\(/ || /obs\.record\(/ || /^[[:space:]]*\.record\(/) && !(world && fn == "emit")) print FILENAME ":" FNR ":" $0
    else if (/span_wake\(/ && !(world && fn == "wake")) print FILENAME ":" FNR ":" $0
  }')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: telemetry outside ProtoWorld::emit (counters, profile, recorder) or a span wake outside ProtoWorld::wake (no allowlist for this rule)"
  status=1
fi

# Rule 5. A call split over lines counts by its first line, so a grant
# cannot hide in formatting.
hits=$(find crates/proto/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { in_tests = 0; fn = "" }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  /access\.set\(/ && !/Access::Invalid/ && !(FILENAME ~ /proto\/src\/world\.rs$/ && fn == "grant") {
    print FILENAME ":" FNR ":" $0
  }')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: access raised outside ProtoWorld::grant — use w.grant(node, block, access) (no allowlist for this rule)"
  status=1
fi

# Rule 6.
hits=$(find crates/apps/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /mul_add/ { print FILENAME ":" FNR ":" $0 }')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: fused multiply-add in application code changes the pinned images — keep each operation as the kernels had it (no allowlist for this rule)"
  status=1
fi

# Rule 7.
hits=$(matches '\benv::vars?(_os)?\b' "$(echo crates/*/src)" |
  grep -v -e '^crates/[a-z]*/src/bin/' -e '^crates/bench/src/cli\.rs:')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: a library crate reads the environment — take the value as configuration, and read the variable in a binary or crates/bench/src/cli.rs (no allowlist for this rule)"
  status=1
fi

# Rule 8. `shut` is the line that ends the test item being skipped: the
# attribute's indentation, then `}`. An item whose first line ends in `;`
# or `}` is that line.
hits=$(find crates/proto/src crates/fabric/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { pending = 0; shut = "" }
  shut != "" { if ($0 ~ shut) shut = ""; next }
  /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; indent = substr($0, 1, index($0, "#") - 1); next }
  pending && /^[[:space:]]*#\[/ { next }
  pending { pending = 0; if ($0 !~ /[;}][[:space:]]*$/) shut = "^" indent "}"; next }
  /^[[:space:]]*\/\// { next }
  /(^|[^A-Za-z0-9_])(Ref|Once|Unsafe)?Cell([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ":" $0 }')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: interior mutability in state the model checker fingerprints — change it through a mutable borrow, which forgets the cached fingerprint (no allowlist for this rule)"
  status=1
fi

# Rule 9. Comment lines in a manifest start with `#`.
hits=$(grep -n 'dsm-bench' crates/*/Cargo.toml | grep -v -e '^crates/bench/Cargo\.toml:' -e '^[^:]*:[0-9]*:[[:space:]]*#')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: a crate depends on dsm-bench — move what it needs below the tools (no allowlist for this rule)"
  status=1
fi

# Rule 10. The constructor list is read from the registry, so an
# application added there is covered at once.
apps=$(grep -oE '\b[A-Z][A-Za-z0-9]*::(try_)?new\(' crates/apps/src/registry.rs |
  sed 's/::.*//' | grep -vx Arc | sort -u | paste -sd'|' -)
if [ -z "$apps" ]; then
  echo "lint_determinism: found no application constructor in crates/apps/src/registry.rs"
  status=1
else
  hits=$(find crates/*/src -name '*.rs' -not -path 'crates/apps/src/*' | sort |
    xargs awk -v re="(^|[^A-Za-z0-9_])($apps)::(try_)?new[(]" '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    $0 ~ re { print FILENAME ":" FNR ":" $0 }')
  if [ -n "$hits" ]; then
    echo "$hits"
    echo "lint_determinism: an application built around the registry — use dsm_apps::build_app or app_sized (no allowlist for this rule)"
    status=1
  fi
fi

# Rule 11.
hits=$( (matches 'cfg(_attr)?!?\(.*\bfeature[[:space:]]*=' "$(echo crates/*/src)"
  grep -n '^[[:space:]]*\[features\]' Cargo.toml crates/*/Cargo.toml perf/Cargo.toml) 2>/dev/null)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: a cargo feature splits the workspace into builds tier-1 does not test — make it a run-time setting (no allowlist for this rule)"
  status=1
fi

# Rule 12.
hits=$(find crates/bench/src crates/scenario/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { in_tests = 0; fn = "" }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  /RunConfig::new\(/ && !(FILENAME ~ /scenario\/src\/run\.rs$/ && fn == "to_config") {
    print FILENAME ":" FNR ":" $0
  }')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: a run configured beside RunSpec — describe it as a dsm_scenario::RunSpec and call to_config (no allowlist for this rule)"
  status=1
fi

# Rule 13.
hits=$(matches '\bconst [A-Z_0-9]*_BYTES\b' crates/proto/src | grep -v '^crates/proto/src/msg\.rs:')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: a wire size outside crates/proto/src/msg.rs — state it there and read it through ProtoMsg::wire_bytes (no allowlist for this rule)"
  status=1
fi

# Rule 14.
hits=$(find crates/proto/src -name '*.rs' -not -path 'crates/proto/src/check/*' \
  -not -name world.rs -not -name config.rs | sort | xargs awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  { line = $0; gsub(/cfg\.check/, "", line) }
  line ~ /\.check([^A-Za-z0-9_(]|$)/ { print FILENAME ":" FNR ":" $0 }')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: the checker reached around ProtoWorld::audit — call w.audit(|c, w| c.hook(w, ..)) and let the hook read the world (no allowlist for this rule)"
  status=1
fi

# Rule 15.
hits=$(find crates/proto/src -name '*.rs' -not -name world.rs | sort | xargs awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /\.post\(/ { print FILENAME ":" FNR ":" $0 }')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: a message posted outside crates/proto/src/world.rs — send it with ProtoWorld::send, and let deliver decide when it is served (no allowlist for this rule)"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "lint_determinism: OK"
fi
exit "$status"
