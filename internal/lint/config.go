package lint

import "strings"

// TypeRef names a type by package path and local name.
type TypeRef struct {
	Pkg  string
	Name string
}

// Config is the policy table the analyzers consult. The zero value checks
// nothing; DefaultConfig returns pinscope's real policy. Tests build small
// configs pointing at their testdata packages.
type Config struct {
	// StrictDeterminism lists the simulation packages in which detrandonly
	// permits NO ambient entropy or wall-clock reads at all: every source
	// of randomness or time must be internal/detrand or an injected value.
	// Entries ending in "/..." match by prefix.
	StrictDeterminism []string

	// CheckedDeterminism lists serving/CLI packages that detrandonly also
	// scans, but where wall-clock reads are legitimate for operational
	// telemetry (latency histograms, uptime). A finding there is allowed
	// only when the enclosing function appears in AllowedWallClock.
	// Entries ending in "/..." match by prefix.
	CheckedDeterminism []string

	// AllowedWallClock maps a checked package's import path to the
	// functions ("F" or "Type.Method") permitted to read the wall clock.
	AllowedWallClock map[string][]string

	// MapOrderPackages lists packages mapdeterminism scans. Entries ending
	// in "/..." match by prefix; a bare "..." matches everything.
	MapOrderPackages []string

	// ExportRoots are the types whose reachable closure exportshape holds
	// to the versioned-snapshot contract (explicit json tags on every
	// exported field, no interface-typed fields, no untagged embedding).
	ExportRoots []TypeRef

	// AtomicSwapPackages lists packages atomicswap scans for torn
	// atomic.Pointer snapshot reads and stray stores.
	AtomicSwapPackages []string

	// SwapFuncs maps a package's import path to the functions ("F" or
	// "Type.Method") designated to Store/Swap atomic.Pointer fields.
	SwapFuncs map[string][]string

	// AtomicWritePackages lists packages atomicwrite scans for bare
	// os.Create/os.WriteFile calls (artifact writes must flow through
	// internal/atomicio). Entries ending in "/..." match by prefix.
	AtomicWritePackages []string

	// AtomicWriteExempt lists packages atomicwrite skips even when matched
	// by AtomicWritePackages — internal/atomicio itself, which implements
	// the contract the analyzer enforces.
	AtomicWriteExempt []string

	// PKIIssuancePackages lists packages pkiissuance scans for bare
	// crypto/ecdsa.GenerateKey calls (all simulation key material must be
	// issued by internal/pki). Entries ending in "/..." match by prefix.
	PKIIssuancePackages []string

	// PKIIssuanceExempt lists packages pkiissuance skips even when matched
	// by PKIIssuancePackages — internal/pki itself, the issuance layer the
	// analyzer routes everyone else through.
	PKIIssuanceExempt []string

	// GoroutineLifetimePackages lists packages goroutinelifetime scans:
	// every go statement there must reach a completion signal. Entries
	// ending in "/..." match by prefix.
	GoroutineLifetimePackages []string

	// LockSafetyPackages lists packages locksafety scans for Lock/Unlock
	// pairing and blocking-while-locked. Entries ending in "/..." match by
	// prefix.
	LockSafetyPackages []string

	// JournalPackages lists packages journaldiscipline scans. Entries
	// ending in "/..." match by prefix.
	JournalPackages []string

	// JournalWriterPackages lists the packages permitted to construct or
	// resume WAL writers (journal.Create / ResumeWriter / AppendTo).
	JournalWriterPackages []string

	// JournalImplPackage is the WAL implementation package: exempt from
	// journaldiscipline, and the only place the magic and O_APPEND may
	// appear.
	JournalImplPackage string

	// DetrandFlowPackages lists packages detrandflow scans for child-label
	// discipline. Entries ending in "/..." match by prefix.
	DetrandFlowPackages []string

	// DetrandFlowExempt lists packages detrandflow skips even when matched
	// — internal/detrand itself, which builds labels from parameters by
	// design.
	DetrandFlowExempt []string

	// DetrandSourceTypes names the deterministic source types whose
	// Child/ChildN derivations detrandflow checks.
	DetrandSourceTypes []TypeRef

	// ErrDropPackages lists packages errdrop scans for discarded
	// Close/Sync/Flush errors. Entries ending in "/..." match by prefix.
	ErrDropPackages []string

	// ErrDropCloserTypes lists write-handle types (beyond *os.File and
	// *bufio.Writer) whose dropped Close/Sync/Flush errors are flagged.
	ErrDropCloserTypes []TypeRef

	// ErrDropExemptTypes lists types errdrop skips — atomicio.Writer,
	// whose post-Commit Close is a documented no-op.
	ErrDropExemptTypes []TypeRef
}

// DefaultConfig is pinscope's policy: the table the ISSUE calls for,
// consulted by cmd/pinlint and scripts/check.sh.
func DefaultConfig() *Config {
	return &Config{
		StrictDeterminism: []string{
			"pinscope",
			"pinscope/internal/appmodel",
			"pinscope/internal/apppkg",
			"pinscope/internal/appstore",
			"pinscope/internal/atomicio",
			"pinscope/internal/core",
			"pinscope/internal/ctlog",
			"pinscope/internal/detrand",
			"pinscope/internal/device",
			"pinscope/internal/dynamicanalysis",
			"pinscope/internal/faultinject",
			"pinscope/internal/frida",
			"pinscope/internal/journal",
			"pinscope/internal/mitmproxy",
			"pinscope/internal/netem",
			"pinscope/internal/pii",
			"pinscope/internal/pki",
			"pinscope/internal/report",
			"pinscope/internal/rootprogram",
			"pinscope/internal/sdkregistry",
			"pinscope/internal/staticanalysis",
			"pinscope/internal/stats",
			"pinscope/internal/tlswire",
			"pinscope/internal/uiauto",
			"pinscope/internal/whois",
			"pinscope/internal/worldgen",
		},
		CheckedDeterminism: []string{
			"pinscope/internal/pinserve",
			"pinscope/internal/advisor",
			"pinscope/internal/shardnet",
			"pinscope/cmd/...",
		},
		AllowedWallClock: map[string][]string{
			// Serving-layer telemetry: request latency, uptime, snapshot
			// build and swap timestamps. None of it feeds study artifacts.
			"pinscope/internal/pinserve": {
				"Build",              // stats.BuildMicros
				"New",                // uptime epoch
				"Server.swap",        // last-load timestamp
				"Server.wrap",        // per-request latency histogram
				"Server.handleStats", // uptime report
			},
			// The TCP transport is the one shardnet file on real time:
			// frame deadlines and lease TTLs against remote peers have to
			// be wall-clock. Both readers implement the package's Clock
			// interface; everything else in the package schedules on it.
			"pinscope/internal/shardnet": {
				"wallClock.Now",
				"wallClock.WaitUntil",
				"wallDeadline",
			},
			// CLI progress banners time the run for the operator.
			"pinscope/cmd/worldgen":  {"main"},
			"pinscope/cmd/pinstudy":  {"main", "runSharded", "runShardServe", "runTimeline"},
			"pinscope/cmd/pinscoped": {"main", "runSelftest"},
		},
		MapOrderPackages: []string{"pinscope", "pinscope/..."},
		ExportRoots: []TypeRef{
			// The versioned snapshot written by core.WriteJSON and read
			// back by core.ReadJSON — the public dataset contract.
			{Pkg: "pinscope/internal/core", Name: "ExportedDataset"},
			// The serving layer's pre-rendered response payloads are
			// snapshot-derived JSON contracts of their own.
			{Pkg: "pinscope/internal/pinserve", Name: "DestInfo"},
			{Pkg: "pinscope/internal/pinserve", Name: "PinAnswer"},
			{Pkg: "pinscope/internal/pinserve", Name: "DistrustAnswer"},
			{Pkg: "pinscope/internal/pinserve", Name: "IndexStats"},
		},
		AtomicSwapPackages: []string{"pinscope/internal/pinserve"},
		SwapFuncs: map[string][]string{
			"pinscope/internal/pinserve": {"Server.swap"},
		},
		AtomicWritePackages:       []string{"pinscope", "pinscope/..."},
		AtomicWriteExempt:         []string{"pinscope/internal/atomicio"},
		PKIIssuancePackages:       []string{"pinscope", "pinscope/..."},
		PKIIssuanceExempt:         []string{"pinscope/internal/pki"},
		GoroutineLifetimePackages: []string{"pinscope", "pinscope/..."},
		LockSafetyPackages:        []string{"pinscope", "pinscope/..."},
		JournalPackages:           []string{"pinscope", "pinscope/..."},
		JournalWriterPackages: []string{
			"pinscope/internal/journal",
			"pinscope/internal/core",
			"pinscope/internal/shardnet",
		},
		JournalImplPackage:  "pinscope/internal/journal",
		DetrandFlowPackages: []string{"pinscope", "pinscope/..."},
		DetrandFlowExempt:   []string{"pinscope/internal/detrand"},
		DetrandSourceTypes: []TypeRef{
			{Pkg: "pinscope/internal/detrand", Name: "Source"},
		},
		ErrDropPackages: []string{"pinscope", "pinscope/..."},
		ErrDropCloserTypes: []TypeRef{
			{Pkg: "pinscope/internal/journal", Name: "Writer"},
		},
		ErrDropExemptTypes: []TypeRef{
			{Pkg: "pinscope/internal/atomicio", Name: "Writer"},
		},
	}
}

// matchPkg reports whether path matches any entry in pats. An entry
// "p/..." matches p and everything under it; "..." matches everything.
func matchPkg(pats []string, path string) bool {
	for _, p := range pats {
		if p == path {
			return true
		}
		if p == "..." {
			return true
		}
		if strings.HasSuffix(p, "/...") {
			root := strings.TrimSuffix(p, "/...")
			if path == root || strings.HasPrefix(path, root+"/") {
				return true
			}
		}
	}
	return false
}

// allowedFunc reports whether fn ("F" or "Type.Method") is allowlisted for
// pkg in table.
func allowedFunc(table map[string][]string, pkg, fn string) bool {
	for _, f := range table[pkg] {
		if f == fn {
			return true
		}
	}
	return false
}
