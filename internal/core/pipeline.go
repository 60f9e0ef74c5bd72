// Package core assembles the paper's complete system: the spatial pattern
// mining pipeline that takes a geographic dataset, extracts qualitative
// spatial predicates into a transaction table, mines frequent patterns
// with the configured algorithm (Apriori, Apriori-KC, or the paper's
// Apriori-KC+), and derives association rules.
//
// It is the integration layer over the substrate packages (geom, de9im,
// qsr, index, dataset, transact, itemset, mining) and the implementation
// behind the public qsrmine API.
package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/transact"
)

// Algorithm selects the mining variant.
type Algorithm int

// The three algorithms the paper evaluates, plus an Eclat engine mining
// the same KC+ pattern set.
const (
	// AlgApriori is the classic baseline: no filtering.
	AlgApriori Algorithm = iota
	// AlgAprioriKC removes the background-knowledge dependency pairs Φ
	// from C2.
	AlgAprioriKC
	// AlgAprioriKCPlus additionally removes every candidate pair whose
	// predicates share a feature type — the paper's contribution.
	AlgAprioriKCPlus
	// AlgEclatKCPlus mines the Apriori-KC+ pattern set with the vertical
	// Eclat engine (tidset intersection with dEclat diffset switching).
	AlgEclatKCPlus
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgApriori:
		return "apriori"
	case AlgAprioriKC:
		return "apriori-kc"
	case AlgAprioriKCPlus:
		return "apriori-kc+"
	case AlgEclatKCPlus:
		return "eclat-kc+"
	}
	return fmt.Sprintf("core.Algorithm(%d)", int(a))
}

// ParseAlgorithm inverts Algorithm.String.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "apriori":
		return AlgApriori, nil
	case "apriori-kc", "kc":
		return AlgAprioriKC, nil
	case "apriori-kc+", "kc+", "kcplus":
		return AlgAprioriKCPlus, nil
	case "eclat-kc+", "eclat":
		return AlgEclatKCPlus, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want apriori, apriori-kc, apriori-kc+, or eclat-kc+)", s)
}

// Config parameterises a full pipeline run.
type Config struct {
	// Extraction configures the predicate extraction; the zero value
	// uses transact.DefaultOptions (see ExtractionOptions).
	Extraction transact.Options
	// Algorithm picks the miner.
	Algorithm Algorithm
	// MinSupport is the relative minimum support in (0, 1].
	MinSupport float64
	// Dependencies is the background knowledge Φ (used by KC and KC+).
	Dependencies []mining.Pair
	// MinConfidence is the least confidence a generated rule must
	// reach. It is read only when GenerateRules is set: GenerateRules
	// alone decides whether the rules stage runs, whatever
	// MinConfidence is.
	MinConfidence float64
	// GenerateRules enables the association-rule stage.
	GenerateRules bool
	// PostFilter applies an optional redundancy post-filter.
	PostFilter PostFilter
}

// PostFilter selects the optional redundancy elimination applied after
// mining — the paper's future-work direction.
type PostFilter int

// Post filters.
const (
	// NoPostFilter keeps all frequent itemsets.
	NoPostFilter PostFilter = iota
	// ClosedFilter keeps only closed itemsets.
	ClosedFilter
	// MaximalFilter keeps only maximal itemsets.
	MaximalFilter
)

// Outcome bundles everything a pipeline run produces.
type Outcome struct {
	// Table is the extracted (or supplied) transaction table. It is nil
	// from RunStateContext, which renders no string rows: the state's
	// Table renders them.
	Table *dataset.Table
	// DB is the interned mining database (exposes the dictionary).
	DB *itemset.DB
	// Result is the mining result with pass statistics.
	Result *mining.Result
	// Rules holds the generated association rules (nil unless enabled).
	Rules []mining.Rule
}

// Run executes the full pipeline on a geographic dataset. It is
// RunContext with a background context, kept for callers that need
// neither cancellation nor tracing.
func Run(d *dataset.Dataset, cfg Config) (*Outcome, error) {
	return RunContext(context.Background(), d, cfg)
}

// ExtractionOptions returns the extraction options cfg runs with. A
// zero Extraction — and only the exact zero value — means
// transact.DefaultOptions. Any deliberately non-zero Options with all
// relation families off performs attributes-only extraction.
func (cfg Config) ExtractionOptions() transact.Options {
	if cfg.Extraction.IsZero() {
		return transact.DefaultOptions()
	}
	return cfg.Extraction
}

// RunContext executes the full pipeline on a geographic dataset,
// honouring ctx cancellation/deadlines in every stage and emitting stage
// spans and mining pass events to any obs.Trace attached to ctx (see
// obs.WithTrace). It is an extraction state build under
// cfg.ExtractionOptions, with its table rendered, mined by
// RunStateContext.
func RunContext(ctx context.Context, d *dataset.Dataset, cfg Config) (*Outcome, error) {
	tr := obs.FromContext(ctx)
	sp := tr.Stage("extract")
	st, err := transact.NewStateContext(ctx, d, cfg.ExtractionOptions())
	var table *dataset.Table
	if err == nil {
		table = st.Table()
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: extraction: %w", err)
	}
	out, err := RunStateContext(ctx, st, cfg)
	if err != nil {
		return nil, err
	}
	out.Table = table
	return out, nil
}

// RunStateContext executes the mining stages on the current table of an
// extraction state, as RunTableContext does on the rendered table and
// with the same outcome, except that it renders no string rows and
// leaves the outcome's Table nil. The database is built from the
// state's indexed rows (itemset.NewDBIndexed), so no item string is
// hashed.
func RunStateContext(ctx context.Context, st *transact.State, cfg Config) (*Outcome, error) {
	sp := obs.FromContext(ctx).Stage("intern")
	db := itemset.NewDBIndexed(st.Rows())
	sp.End()
	return mine(ctx, db, cfg)
}

// EffectiveMiningConfig resolves the mining.Config that cfg's algorithm
// actually mines with. The named algorithm wrappers override the filter
// flags — plain Apriori ignores both Φ and same-feature filtering,
// Apriori-KC applies only Φ, and every KC+ engine forces same-feature
// filtering on — so any code that re-derives or patches a result (the
// delta mining path in particular) must use these effective semantics,
// not the raw request config.
func EffectiveMiningConfig(cfg Config) (mining.Config, error) {
	mcfg := mining.Config{
		MinSupport:   cfg.MinSupport,
		Dependencies: cfg.Dependencies,
	}
	switch cfg.Algorithm {
	case AlgApriori:
		mcfg.Dependencies = nil
	case AlgAprioriKC:
	case AlgAprioriKCPlus, AlgEclatKCPlus:
		mcfg.FilterSameFeature = true
	default:
		return mining.Config{}, fmt.Errorf("core: unknown algorithm %d", cfg.Algorithm)
	}
	return mcfg, nil
}

// RunTable executes the mining stages on an existing transaction table
// (e.g. one loaded from disk or produced by a generator). It is
// RunTableContext with a background context.
func RunTable(table *dataset.Table, cfg Config) (*Outcome, error) {
	return RunTableContext(context.Background(), table, cfg)
}

// RunTableContext executes the mining stages on an existing transaction
// table, honouring ctx cancellation/deadlines between (and inside)
// mining passes and emitting stage spans and pass events to any
// obs.Trace attached to ctx. A cancelled run returns ctx.Err()
// (context.Canceled or context.DeadlineExceeded), unwrappable with
// errors.Is through the "core: mining:" wrapping.
func RunTableContext(ctx context.Context, table *dataset.Table, cfg Config) (*Outcome, error) {
	sp := obs.FromContext(ctx).Stage("intern")
	db := itemset.NewDB(table)
	sp.End()
	out, err := mine(ctx, db, cfg)
	if err != nil {
		return nil, err
	}
	out.Table = table
	return out, nil
}

// mine runs the stages after interning on the database db; the outcome
// has no Table.
func mine(ctx context.Context, db *itemset.DB, cfg Config) (*Outcome, error) {
	tr := obs.FromContext(ctx)
	mcfg, err := EffectiveMiningConfig(cfg)
	if err != nil {
		return nil, err
	}
	var res *mining.Result
	sp := tr.Stage("mine")
	switch cfg.Algorithm {
	case AlgApriori, AlgAprioriKC, AlgAprioriKCPlus:
		res, err = mining.MineContext(ctx, db, mcfg)
	case AlgEclatKCPlus:
		res, err = mining.EclatContext(ctx, db, mcfg)
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: mining: %w", err)
	}
	sp = tr.Stage("postfilter")
	switch cfg.PostFilter {
	case NoPostFilter:
	case ClosedFilter:
		res.Frequent = mining.ClosedOnly(res.Frequent)
	case MaximalFilter:
		res.Frequent = mining.MaximalOnly(res.Frequent)
	default:
		sp.End()
		return nil, fmt.Errorf("core: unknown post filter %d", cfg.PostFilter)
	}
	sp.End()
	out := &Outcome{DB: db, Result: res}
	if cfg.GenerateRules {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp = tr.Stage("rules")
		out.Rules = mining.GenerateRules(res, cfg.MinConfidence)
		sp.End()
	}
	return out, nil
}
