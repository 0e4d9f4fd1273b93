# Tier-1 verification: everything CI runs.
.PHONY: check build test unused-exports explore-smoke metrics-smoke causal-smoke serve-smoke refusal-smoke parbench-smoke memento-smoke forensics-smoke space-smoke elastic-smoke perfbench-det sched-golden output-golden clean figures

check: build test unused-exports explore-smoke metrics-smoke causal-smoke serve-smoke refusal-smoke parbench-smoke memento-smoke forensics-smoke space-smoke elastic-smoke perfbench-det sched-golden output-golden

build:
	dune build

test:
	dune runtest

# Every value a library interface exports must be used outside its own
# module; one reached only through a local open is listed, with its
# reason, in test/unused-exports.allow.
unused-exports:
	bash test/unused-exports.sh

# Bounded exhaustive exploration smoke: a 2-thread x 1-op campaign with
# preemption bound 2 must exhaust its tree with no violation.  Its
# report is the one sched-golden digests.
explore-smoke:
	dune exec bin/repro.exe -- explore -a tracking -t 2 --ops 1 \
	  --keys 4 --prefill 1 --preemptions 2 --crashes 1 --wb 2 --max-execs 0 \
	  > _build/sched-golden-explore.txt

# Metrics + Perfetto smoke: a small campaign with tracing on;
# --validate re-parses the emitted trace_event JSON and requires at least
# one complete span per thread track.  (repro stats reporting the
# in-memory latency/contention/recovery profiles of a crashing seed is
# output-golden's stats.txt.)  A contended crash campaign traced without
# metrics must report failed CASes in its op_end lines: the tracer counts
# them from the event bus itself.
metrics-smoke:
	dune exec bin/repro.exe -- trace -a tracking -t 3 --ops 12 --crashes 2 \
	  --keys 32 --seed 7 --perfetto _build/perfetto-smoke.json --validate
	dune exec bin/repro.exe -- crash -a tracking -t 6 --ops 20 --keys 8 \
	  --seeds 1 --crashes 1 --trace _build/ms-crash.jsonl
	grep -q '"cas_fail":[1-9]' _build/ms-crash.jsonl

# Causal profiler smoke: a tiny what-if sweep whose --check asserts the
# paper's orderings — high-impact pwbs above low-impact per execution,
# psync sensitivity near zero — and exercises the JSON/CSV exporters.
causal-smoke:
	dune exec bin/repro.exe -- causal --quick --check \
	  --json _build/causal-smoke.json --csv _build/causal-smoke.csv

# Store service smoke: crash one shard of a live 4-shard serve; --check
# asserts zero lost requests (oracle-verified per shard) and that the
# surviving shards completed requests inside the recovery window.  The
# second run explores every crash point of a tiny 2-shard store.  A
# config the store refuses (a crash shard it lacks, a split of a queue
# shard) is a usage error: exit 2, not a violation; so is a flag
# --explore would ignore (it picks every crash itself), and a flag that
# only qualifies one not given.
serve-smoke:
	dune exec bin/repro.exe -- serve --shards 4 --clients 4 --ops 100 \
	  --crash-shard 2 --check
	dune exec bin/repro.exe -- serve --shards 2 --clients 2 --ops 12 \
	  --keys 16 --explore --dispatch-budget 48
	dune exec bin/repro.exe -- serve --shards 2 --clients 2 --ops 12 \
	  --keys 16 --explore --dispatch-budget 4 --crash-shard 1 --wb all \
	  --check; test $$? -eq 2
	dune exec bin/repro.exe -- serve --shards 2 --crash-shard 7; \
	  test $$? -eq 2
	dune exec bin/repro.exe -- serve --shards 2 \
	  --backend tracking-topic,tracking --migrate 0; test $$? -eq 2
	for f in "--crash-dispatch 5" "--crash-after 3" "--migrate-after 3" \
	  "--dispatch-budget 5"; do dune exec bin/repro.exe -- serve --shards 2 \
	  --clients 2 --ops 12 --keys 16 $$f; test $$? -eq 2 || exit 1; done

# Refusals: a config no run could use is a usage error, refused before
# anything runs as one line with exit 2 and no OCaml exception — from
# each command's flags, and from a repro file of either kind with one
# line edited: in the shipped campaign repro, the line that starts like
# the edit up to its last word ("round recover 0 -" empties the
# recovery round's schedule); in a minimal serve repro, which loads and
# replays as a passing serve unedited, the line that starts with the
# edit's first word.
REFUSED_FLAGS = "crash -t 0" "crash -t 70" "crash --keys 0" \
  "crash --ops 0 --seeds 1" "explore -t 2 --ops 0" "explore --prefill=-2" \
  "space --find-pct 150" "serve --keys 0 --ops 5" \
  "serve --crash-both 0,1 --crash-dispatch 0 --ops 10" \
  "serve --restart-ns=-5" "serve --failover-ns=-5" "serve --open-loop 0" \
  "serve --migrate 0 --migrate-after=-1" "causal -t 0 --ops 5" \
  "causal -t 70 --ops 5" "causal --ops 0 -t 2" "sweep -t 0" "sweep -t 70"
REFUSED_CAMPAIGN = "threads 70" "threads 0" "ops-per-thread 0" \
  "key-range 0" "prefill -2" "find-pct 150" "max-crashes 0" \
  "algo tracking-topic" "algo nope" "round recover 0 -"
REFUSED_SERVE = "key-range 0" "prefill -1" "find-pct 150" "restart-ns -5" \
  "failover-ns -5" "open-loop-ns 0" "crash dispatch 1 0" "crash after 1 -1" \
  "migrate 0 -1 0" "algo nope"
SERVE_REPRO = "tracking-nvm-serve v1" "algo tracking" "shards 2" \
  "clients 2" "ops-per-client 4" "batch 1" "find-pct 30" "key-range 16" \
  "prefill 8" "open-loop-ns -" "crash none" "failover-ns 500" \
  "migrate none" "restart-ns 5000" "seed 1" "error x" "schedule -"
REFUSED = > _build/refusal.txt 2>&1; test $$? -eq 2 || exit 1; \
  test $$(wc -l < _build/refusal.txt) -eq 1 || exit 1; \
  ! grep -q Invalid_argument _build/refusal.txt || exit 1
refusal-smoke:
	for a in $(REFUSED_FLAGS); do dune exec bin/repro.exe -- $$a \
	  $(REFUSED); done
	for f in $(REFUSED_CAMPAIGN); do sed "s/^$${f% *} .*/$$f/" \
	  repros/tracking-broken.repro > _build/refusal.repro; \
	  dune exec bin/repro.exe -- replay _build/refusal.repro $(REFUSED); done
	printf '%s\n' $(SERVE_REPRO) > _build/refusal-serve.repro
	dune exec bin/repro.exe -- replay _build/refusal-serve.repro \
	  > /dev/null; test $$? -eq 1
	for f in $(REFUSED_SERVE); do sed "s/^$${f%% *} .*/$$f/" \
	  _build/refusal-serve.repro > _build/refusal.repro; \
	  dune exec bin/repro.exe -- replay _build/refusal.repro $(REFUSED); done

# Parallel-driver smoke: the same small campaign suite at -j 1 and -j 2
# must produce byte-identical reports — the determinism contract of the
# domain fan-out driver (lib/harness/parallel.mli).  Progress lines are
# pacing, not results, and a "saved to" line names its own file, so
# both are filtered before comparison; repro files and JSON exports are
# compared raw.  The failing store exploration (output-golden's
# --broken-handoff split) counts every failure, so its report and its
# first failure's serve repro must match too.
parbench-smoke:
	dune exec bin/repro.exe -- explore -a tracking -t 2 --ops 1 \
	  --keys 4 --prefill 1 --preemptions 2 --crashes 1 --wb 2 --max-execs 0 \
	  -j 1 | grep -v '^\[explore\]' > _build/parbench-explore-j1.txt
	dune exec bin/repro.exe -- explore -a tracking -t 2 --ops 1 \
	  --keys 4 --prefill 1 --preemptions 2 --crashes 1 --wb 2 --max-execs 0 \
	  -j 2 | grep -v '^\[explore\]' > _build/parbench-explore-j2.txt
	cmp _build/parbench-explore-j1.txt _build/parbench-explore-j2.txt
	dune exec bin/repro.exe -- causal --quick -j 1 --json _build/parbench-causal-j1.json
	dune exec bin/repro.exe -- causal --quick -j 2 --json _build/parbench-causal-j2.json
	cmp _build/parbench-causal-j1.json _build/parbench-causal-j2.json
	dune exec bin/repro.exe -- serve --shards 2 --clients 2 --ops 12 \
	  --keys 16 --explore --dispatch-budget 48 -j 1 > _build/parbench-serve-j1.txt
	dune exec bin/repro.exe -- serve --shards 2 --clients 2 --ops 12 \
	  --keys 16 --explore --dispatch-budget 48 -j 2 > _build/parbench-serve-j2.txt
	cmp _build/parbench-serve-j1.txt _build/parbench-serve-j2.txt
	for j in 1 2; do dune exec bin/repro.exe -- serve -a tracking --shards 2 \
	  --clients 2 --ops 16 --keys 16 --migrate 0 --migrate-after 3 \
	  --broken-handoff --explore --dispatch-budget 200 -j $$j \
	  --repro _build/parbench-handoff-j$$j.repro \
	  > _build/parbench-handoff-j$$j.out; test $$? -eq 1 || exit 1; \
	  grep -v '^serve repro saved to ' _build/parbench-handoff-j$$j.out \
	  > _build/parbench-handoff-j$$j.txt; done
	cmp _build/parbench-handoff-j1.txt _build/parbench-handoff-j2.txt
	cmp _build/parbench-handoff-j1.repro _build/parbench-handoff-j2.repro

# Memento framework smoke: both derived structures must survive crash
# campaigns with oracle verification and exhaust a single-threaded
# exploration tree (no scheduling choices, so every crash point x
# write-back resolution is covered, including the deep confirm-side
# ones).  The negative control with the checkpoint persist elided must
# be caught by the same exploration (nonzero exit): output-golden's
# explore.txt.
memento-smoke:
	dune exec bin/repro.exe -- crash -a memento-list --seeds 30 -t 4 \
	  --ops 10 --keys 24 --crashes 3
	dune exec bin/repro.exe -- crash -a memento-comb --seeds 30 -t 4 \
	  --ops 10 --keys 24 --crashes 3
	dune exec bin/repro.exe -- explore -a memento-list -t 1 --ops 3 \
	  --keys 3 --prefill 0 --preemptions 0 --crashes 1 --wb 2 --max-execs 0
	dune exec bin/repro.exe -- explore -a memento-comb -t 1 --ops 3 \
	  --keys 3 --prefill 0 --preemptions 0 --crashes 1 --wb 2 --max-execs 0

# Crash-forensics smoke: `repro explain` on the shipped negative-control
# repros must name the elided persist site in the postmortem, must not
# explain the round-0 crash with a write-back from a later round, and
# two runs of the same explain must print byte-identical output (the
# determinism contract of forensic replay).
forensics-smoke:
	dune exec bin/repro.exe -- explain repros/tracking-broken.repro \
	  | grep -q 'rlist-broken.new.pwb'
	! dune exec bin/repro.exe -- explain repros/tracking-broken.repro \
	  | grep -q 'at crash #0: .* in round [1-9]'
	dune exec bin/repro.exe -- explain repros/memento-broken.repro \
	  | grep -q 'mmt-broken.cp.pwb'
	dune exec bin/repro.exe -- explain repros/tracking-broken.repro \
	  > _build/forensics-tb-1.txt
	dune exec bin/repro.exe -- explain repros/tracking-broken.repro \
	  > _build/forensics-tb-2.txt
	cmp _build/forensics-tb-1.txt _build/forensics-tb-2.txt
	dune exec bin/repro.exe -- explain --json repros/memento-broken.repro \
	  > _build/forensics-mb-1.json
	dune exec bin/repro.exe -- explain --json repros/memento-broken.repro \
	  > _build/forensics-mb-2.json
	cmp _build/forensics-mb-1.json _build/forensics-mb-2.json

# Persistent-space accounting smoke: the default variant set must pass
# the detectable-object lower-bound check (--check), report live/meta/
# garbage accounting for the core variants, and render byte-identically
# at -j 1 and -j 4 (the registry is domain-local; see DESIGN.md
# "Persistent-space accounting").
space-smoke:
	dune exec bin/repro.exe -- space --check -j 1 --json _build/space-j1.json \
	  | grep -v '^wrote ' > _build/space-j1.txt
	grep -q 'memento-comb' _build/space-j1.txt
	grep -q 'arXiv 2002.11378' _build/space-j1.txt
	grep -q '"lower_bound_ok":true' _build/space-j1.json
	dune exec bin/repro.exe -- space --check -j 4 --json _build/space-j4.json \
	  | grep -v '^wrote ' > _build/space-j4.txt
	cmp _build/space-j1.txt _build/space-j4.txt
	cmp _build/space-j1.json _build/space-j4.json

# Elastic-store smoke: (1) a live shard split completes under traffic
# and passes the balance gate; (2) a crashed primary fails over to its
# replica with zero lost requests; (3) correlated power loss of BOTH
# migration endpoints — source write-backs dropped, destination's all
# applied — still converges; (4) exploring the crash points of a
# migrating store proves every key lands in exactly one shard at every
# crash point.  The negative control with the handoff-commit pwb elided
# must be caught by the same exploration (nonzero exit): output-golden's
# serve-explore.txt.
elastic-smoke:
	dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 40 --keys 32 --migrate 0 --migrate-after 10 --check --check-balance 64
	dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 40 --keys 32 --replicate --crash-shard 0 --crash-after 20 --check
	dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 4 \
	  --ops 40 --keys 32 --migrate 0 --migrate-after 5 --crash-both 0,2 \
	  --crash-dispatch 12 --wb drop --wb2 all --check
	dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 16 --keys 16 --migrate 0 --migrate-after 3 --explore \
	  --dispatch-budget 200 -j 2

# Simulated-results golden: the "det" lines of the benchmark smoke at
# seed 3 (simulated results and per-layer counts, fixed by the seed)
# must match the committed golden byte for byte, so a change that moves
# virtual-time results is caught against the previous commit, not only
# against a second run of itself.  Host timings are not compared.  A
# change that means to move them regenerates the golden with the same
# command and says so.
perfbench-det:
	bash perfbench/run.sh --smoke --seed 3 > _build/perfbench-smoke3.txt
	grep '^det ' _build/perfbench-smoke3.txt | diff test/perfbench-smoke3.det -

# Scheduling golden: the digests of three outputs that every scheduling
# decision shapes must match the committed ones — the JSONL trace of a
# seeded crash campaign (`Random` decisions, one Sched event each), the
# report explore-smoke writes (`choose` decisions) and the JSONL
# trace of a serve run with a replica failover and a shard split
# (`Perf` decisions over 10 fibers with poll waiters, a crash and a
# migration).  explore-smoke and parbench-smoke only compare -j 1
# against -j 2, which a scheduler change that alters every tree the same
# way passes.  A change that means to move them regenerates the golden
# with the same commands and says so.
sched-golden: explore-smoke
	dune exec bin/repro.exe -- crash -a tracking --seeds 20 \
	  --trace _build/sched-golden-crash.jsonl > /dev/null
	dune exec bin/repro.exe -- serve --replicate --migrate 0 --crash-shard 1 \
	  --crash-after 400 --trace _build/sched-golden-serve.jsonl > /dev/null
	cd _build && md5sum sched-golden-crash.jsonl sched-golden-explore.txt \
	  sched-golden-serve.jsonl | diff ../test/sched-golden.txt -

# Output golden: the digests of the CLI's reports, saved repro files,
# replay transcripts and postmortems must match the committed ones —
# both shipped repros explained (text and JSON), stats, space, causal
# and three serve reports, a Perfetto export, campaign replay/shrink,
# and the failure path of explore, crash, stats, soak, a serve
# exploration (stdout plus the repro it saves, then that serve repro replayed
# and explained) and a plain serve run (stdout and the repro it
# records by re-running the failing config); the explore report of every crash-capable set-model
# variant on the crash-explore tree (the two negative controls fail,
# with a postmortem); the refusal of a queue backend by crash and space;
# the refusal of the volatile harris list by crash and explore; the
# explore report of tracking and romulus on a two-crash tree, whose
# executions resume from checkpoints after a recovery round and crash
# inside recovery; and, at preemption bound 1, the explore report of
# tracking on explore-smoke's tree and the failing reports and saved
# repros of both negative controls on the crash-explore tree — the
# trees where a spent preemption budget starts forcing the running
# thread in the middle of an execution.  Romulus and redo-opt stay at
# bound 0 (see ROADMAP, false violation).
# Paths are relative, so the digests do not depend on where the
# repository is checked out.  A change that means to move an output
# regenerates the golden with the same commands and says so.
OG = _build/output-golden
EXPLORE_PASS = tracking capsules capsules-opt romulus redo-opt tracking-bst \
  tracking-noopt tracking-hash memento-list memento-comb
EXPLORE_FAIL = tracking-broken memento-broken
EXPLORE_TREE = -t 2 --ops 2 --keys 8 --prefill 2 --preemptions 0 --crashes 1 \
  --wb 1 --max-execs 0
EXPLORE2_TREE = -t 2 --ops 1 --keys 4 --prefill 1 --preemptions 0 --crashes 2 \
  --wb 1 --max-execs 0
EXPLORE_P1_TREE = -t 2 --ops 2 --keys 8 --prefill 2 --preemptions 1 --crashes 1 \
  --wb 1 --max-execs 0
output-golden:
	rm -rf $(OG) && mkdir -p $(OG)
	dune exec bin/repro.exe -- explain repros/tracking-broken.repro > $(OG)/explain-tb.txt
	dune exec bin/repro.exe -- explain --json repros/tracking-broken.repro > $(OG)/explain-tb.json
	dune exec bin/repro.exe -- explain repros/memento-broken.repro > $(OG)/explain-mb.txt
	dune exec bin/repro.exe -- explain --json repros/memento-broken.repro > $(OG)/explain-mb.json
	dune exec bin/repro.exe -- stats -a tracking -t 4 --ops 40 --crashes 2 \
	  --keys 64 --seed 1 > $(OG)/stats.txt
	dune exec bin/repro.exe -- stats -a tracking -t 4 --ops 40 --crashes 2 \
	  --keys 64 --seed 1 --json - > $(OG)/stats.json
	dune exec bin/repro.exe -- space --check -j 1 --json - > $(OG)/space.json
	dune exec bin/repro.exe -- causal --quick --json - > $(OG)/causal.json
	dune exec bin/repro.exe -- serve --shards 4 --clients 4 --ops 100 \
	  --crash-shard 2 --json - > $(OG)/serve-crash.json
	dune exec bin/repro.exe -- serve --replicate --migrate 0 --crash-shard 1 \
	  --crash-after 400 --json - > $(OG)/serve-failover.json
	dune exec bin/repro.exe -- serve --shards 3 --wb prefix:1 \
	  --backend tracking,tracking-topic,tracking-hash --skew 0.8 \
	  --open-loop 400 --json - > $(OG)/serve-mixed.json
	dune exec bin/repro.exe -- trace -a tracking -t 3 --ops 12 --crashes 2 \
	  --keys 32 --seed 7 --perfetto $(OG)/trace-perfetto.json \
	  --jsonl $(OG)/trace.jsonl > $(OG)/trace.txt
	dune exec bin/repro.exe -- replay repros/tracking-broken.repro > $(OG)/replay-tb.txt
	dune exec bin/repro.exe -- replay --shrink --out $(OG)/shrunk.repro \
	  repros/memento-broken.repro > $(OG)/shrink.txt
	! dune exec bin/repro.exe -- explore -a memento-broken -t 1 --ops 3 \
	  --keys 3 --prefill 0 --preemptions 0 --crashes 1 --wb 2 --max-execs 0 \
	  --repro $(OG)/explore.repro > $(OG)/explore.txt 2> /dev/null
	! dune exec bin/repro.exe -- crash -a tracking-broken --seeds 20 \
	  --repro $(OG)/crash.repro > $(OG)/crash.txt
	! dune exec bin/repro.exe -- crash -a memento-broken --seeds 40 -t 3 \
	  --ops 5 --crashes 1 --keys 16 --repro $(OG)/crash-mb.repro \
	  > $(OG)/crash-mb.txt
	! dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 16 --keys 16 --migrate 0 --migrate-after 3 --broken-handoff \
	  --explore --dispatch-budget 200 -j 2 --repro $(OG)/serve.repro \
	  > $(OG)/serve-explore.txt
	! dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 16 --keys 16 --migrate 0 --migrate-after 3 --broken-handoff \
	  --crash-both 0,2 --crash-dispatch 64 --wb drop \
	  --repro $(OG)/serve-plain.repro > $(OG)/serve-plain.txt
	dune exec bin/repro.exe -- replay $(OG)/serve.repro > $(OG)/serve-replay.txt
	dune exec bin/repro.exe -- explain $(OG)/serve.repro > $(OG)/explain-serve.txt
	dune exec bin/repro.exe -- explain --json $(OG)/serve.repro > $(OG)/explain-serve.json
	! dune exec bin/repro.exe -- stats -a tracking-broken -t 4 --ops 40 \
	  --crashes 2 --keys 64 --seed 5 > $(OG)/stats-broken.txt
	! dune exec bin/repro.exe -- soak -a tracking-broken --rounds 1 > $(OG)/soak.txt
	for a in $(EXPLORE_PASS); do dune exec bin/repro.exe -- explore -a $$a \
	  $(EXPLORE_TREE) > $(OG)/explore-$$a.txt 2> /dev/null || exit 1; done
	for a in $(EXPLORE_FAIL); do ! dune exec bin/repro.exe -- explore -a $$a \
	  $(EXPLORE_TREE) > $(OG)/explore-$$a.txt 2> /dev/null || exit 1; done
	! dune exec bin/repro.exe -- crash -a tracking-topic > $(OG)/crash-topic.txt
	! dune exec bin/repro.exe -- space tracking-topic > $(OG)/space-topic.txt
	! dune exec bin/repro.exe -- crash -a harris > $(OG)/crash-harris.txt
	! dune exec bin/repro.exe -- explore -a harris $(EXPLORE_TREE) \
	  > $(OG)/explore-harris.txt
	for a in tracking romulus; do dune exec bin/repro.exe -- explore -a $$a \
	  $(EXPLORE2_TREE) > $(OG)/explore2-$$a.txt 2> /dev/null || exit 1; done
	dune exec bin/repro.exe -- explore -a tracking -t 2 --ops 1 --keys 4 \
	  --prefill 1 --preemptions 1 --crashes 1 --wb 2 --max-execs 0 \
	  > $(OG)/explore-p1-tracking.txt 2> /dev/null
	for a in $(EXPLORE_FAIL); do ! dune exec bin/repro.exe -- explore -a $$a \
	  $(EXPLORE_P1_TREE) --repro $(OG)/explore-p1-$$a.repro \
	  > $(OG)/explore-p1-$$a.txt 2> /dev/null || exit 1; done
	cd $(OG) && md5sum explain-tb.txt explain-tb.json explain-mb.txt \
	  explain-mb.json stats.txt stats.json space.json causal.json \
	  serve-crash.json serve-failover.json serve-mixed.json trace.txt \
	  trace-perfetto.json trace.jsonl replay-tb.txt shrink.txt shrunk.repro \
	  explore.txt explore.repro crash.txt crash.repro \
	  serve-explore.txt serve.repro serve-replay.txt explain-serve.txt \
	  explain-serve.json stats-broken.txt soak.txt \
	  $(patsubst %,explore-%.txt,$(EXPLORE_PASS) $(EXPLORE_FAIL)) \
	  crash-topic.txt space-topic.txt crash-harris.txt explore-harris.txt \
	  explore2-tracking.txt explore2-romulus.txt explore-p1-tracking.txt \
	  explore-p1-tracking-broken.txt explore-p1-tracking-broken.repro \
	  explore-p1-memento-broken.txt explore-p1-memento-broken.repro \
	  crash-mb.txt crash-mb.repro serve-plain.txt serve-plain.repro \
	  | diff ../../test/output-golden.txt -

clean:
	dune clean

figures:
	dune exec bin/repro.exe -- figures --quick
