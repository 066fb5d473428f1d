"""Declarative rule table for the hybridcnn contract linter.

Each rule encodes one written invariant from the subsystem READMEs /
ROADMAP as a machine-checkable pattern. The engine (contract_lint.py)
interprets the `kind` field; everything else here is data, so adding a
rule is an edit to this table plus (for a new kind) one matcher.

Path patterns are fnmatch globs over the repo-relative POSIX path of the
scanned file. `paths` scopes where the rule applies; `allow_paths` carves
out files that implement the very facility the rule protects (the RNG
itself may reference engines; the stopwatch exists to read the clock).

Every rule can be waived per line with an inline comment:

    // contract-lint: allow(<rule-name>) <justification>

on the violating line or the line directly above it. An empty
justification is itself a finding (`bad-waiver`).
"""

RULES = [
    {
        "name": "nondet-source",
        "kind": "regex",
        "description": (
            "Bans nondeterminism sources (wall clocks, std::random_device, "
            "C rand/srand/time) in library code: every stochastic or "
            "time-like input must flow from an explicit seed so reruns are "
            "bit-identical."
        ),
        "paths": ["src/**"],
        "allow_paths": [
            # The stopwatch exists to read the monotonic clock; timing
            # never feeds computation, only reports.
            "src/util/stopwatch.hpp",
            # Serving latency stats timestamp requests with steady_clock;
            # seeds come from the session's FaultSeedStream, never time.
            "src/serve/inference_service.hpp",
            "src/serve/inference_service.cpp",
        ],
        "patterns": [
            (r"std::random_device", "std::random_device is nondeterministic"),
            (r"\brand\s*\(", "C rand() draws from hidden global state"),
            (r"\bsrand\s*\(", "srand() seeds hidden global state"),
            (r"\btime\s*\(", "time() is a wall-clock seed"),
            (r"\bclock\s*\(", "clock() is a wall-clock source"),
            (r"\bgettimeofday\s*\(", "gettimeofday() is a wall-clock source"),
            (r"\bgetpid\s*\(", "pid-derived values differ across runs"),
            (
                # The type names, not `::now`: a clock read through an
                # alias (`using Clock = std::chrono::steady_clock;`) must
                # trip the rule too.
                r"\b(?:system_clock|steady_clock|high_resolution_clock)\b",
                "clock reads in library code make results time-dependent",
            ),
            (
                r"std::this_thread::get_id",
                "thread ids are scheduling-dependent",
            ),
        ],
    },
    {
        "name": "rng-seed-provenance",
        "kind": "rng-provenance",
        "description": (
            "Every RNG must be util::Rng constructed from an explicit seed "
            "expression (a seed parameter/member, a FaultSeedStream draw, "
            "or a fork of such a generator). std <random> engines are "
            "banned outright: the project RNG is the only sanctioned "
            "stochastic source."
        ),
        "paths": ["src/**"],
        "allow_paths": [
            # The RNG implementation itself.
            "src/util/rng.hpp",
            "src/util/rng.cpp",
        ],
        # First constructor argument must match one of these for the
        # construction to count as seed-derived.
        "seed_arg_patterns": [
            r"seed",          # seed, seed_, fault_seed, params.noise_seed, ...
            r"Seed",          # kDefaultSeed, SeedStream helpers
            r"\.fork\s*\(",   # child stream of an already-sanctioned Rng
            r"\.take\s*\(",   # FaultSeedStream::take/take_block
            r"\.peek\s*\(",   # FaultSeedStream::peek
        ],
        "banned_engines": [
            r"std::mt19937",
            r"std::minstd_rand",
            r"std::default_random_engine",
            r"std::ranlux",
            r"std::knuth_b",
        ],
    },
    {
        "name": "unordered-iter",
        "kind": "unordered-iter",
        "description": (
            "Bans iteration over unordered containers: their traversal "
            "order is implementation-defined, so any reduction or output "
            "fed by it breaks the bit-identity contract. Membership "
            "queries and keyed lookup stay fine."
        ),
        "paths": ["src/**"],
        "allow_paths": [],
    },
    {
        "name": "fp-contract",
        "kind": "regex",
        "description": (
            "Bans FMA intrinsics and FP_CONTRACT pragmas in the "
            "exact-arithmetic subsystems (reliable/, faultsim/, core/): a "
            "fused multiply-add rounds once where the qualified executor "
            "path rounds twice, which silently breaks qualified-vs-golden "
            "bit-identity."
        ),
        "paths": ["src/reliable/**", "src/faultsim/**", "src/core/**"],
        "allow_paths": [],
        "patterns": [
            (r"_mm\d*_fmadd", "FMA intrinsic fuses the mul+add rounding"),
            (r"_mm\d*_fmsub", "FMA intrinsic fuses the mul+sub rounding"),
            (r"_mm\d*_fnmadd", "FMA intrinsic fuses the rounding"),
            (r"_mm\d*_fnmsub", "FMA intrinsic fuses the rounding"),
            (r"\bstd::fmaf?\b", "std::fma is a fused multiply-add"),
            (r"\b__builtin_fmaf?\b", "__builtin_fma is a fused multiply-add"),
            (
                r"FP_CONTRACT\s+(?:ON|DEFAULT)",
                "FP_CONTRACT must stay off in exact-arithmetic subsystems",
            ),
        ],
    },
    {
        "name": "fp-contract-flag",
        "kind": "compile-flag",
        "description": (
            "Every translation unit under the exact-arithmetic subsystems "
            "must be compiled with -ffp-contract=off (checked against "
            "compile_commands.json, the same source of truth clang-tidy "
            "uses). The CMakeLists property and the source tree must not "
            "drift apart."
        ),
        "paths": ["src/reliable/**", "src/faultsim/**", "src/core/**"],
        "allow_paths": [],
        "required_flag": "-ffp-contract=off",
    },
    {
        "name": "infer-const",
        "kind": "infer-const",
        "description": (
            "Layer inference entry points (infer/infer_from/infer_until...) "
            "must be const member functions: the re-entrancy contract lets "
            "any number of threads run one shared model, which is only "
            "sound while the infer path cannot mutate the layer."
        ),
        "paths": ["src/nn/*.hpp"],
        "allow_paths": [],
    },
    {
        "name": "nn-mutable",
        "kind": "regex",
        "description": (
            "Bans mutable members in src/nn/ and src/reliable/: a mutable "
            "member is hidden state a const infer or forward path could "
            "write, which would break re-entrant shared-model inference "
            "and the reliable kernels' immutability (one kernel shared "
            "lock-free by every worker) exactly where the compiler can no "
            "longer see it."
        ),
        "paths": ["src/nn/**", "src/reliable/**"],
        "allow_paths": [],
        "patterns": [
            (
                r"\bmutable\b",
                "mutable state in a layer or kernel defeats the const "
                "infer/forward contract",
            ),
        ],
    },
    {
        "name": "parallel-accum",
        "kind": "parallel-accum",
        "description": (
            "parallel_for bodies must write only through per-index or "
            "per-chunk disjoint outputs. A compound assignment to a shared "
            "captured scalar inside the body is a cross-thread accumulation "
            "whose order depends on scheduling — a data race and a "
            "bit-identity break at once. Reductions belong outside the "
            "parallel region, in fixed order."
        ),
        "paths": ["src/**"],
        "allow_paths": [],
    },
]
