// Package qsrmine is a library for mining frequent spatial patterns from
// geographic data with qualitative spatial reasoning, reproducing
// Bogorny, Moelans & Alvares, "Filtering Frequent Spatial Patterns with
// Qualitative Spatial Reasoning" (ICDE 2007).
//
// The library covers the full pipeline of the paper:
//
//   - a planar geometry engine with DE-9IM topological reasoning
//     (Egenhofer & Franzosa 9-intersection relations), qualitative
//     distance and directional relations;
//   - spatial predicate extraction: reference objects (e.g. districts)
//     become transactions whose items are non-spatial attribute values and
//     qualitative spatial predicates against relevant feature types
//     ("contains_slum", "closeTo_policeCenter"), accelerated by an R-tree;
//   - frequent pattern mining with Apriori, Apriori-KC (background
//     knowledge dependency filtering), and Apriori-KC+ — the paper's
//     contribution, which additionally removes every candidate pair whose
//     predicates share a feature type, so that meaningless patterns like
//     {contains_slum, touches_slum} are never generated;
//   - association rule generation with standard interestingness measures,
//     closed/maximal post-filters, and the analytic gain bound of the
//     paper's Formula 1.
//
// Quick start:
//
//	scene := qsrmine.PortoAlegreScene()
//	out, err := qsrmine.Run(scene, qsrmine.Config{
//		Algorithm:  qsrmine.AprioriKCPlus,
//		MinSupport: 0.5,
//	})
//	for _, f := range out.Result.Frequent {
//		fmt.Println(f.Items.Format(out.DB.Dict), f.Support)
//	}
//
// See the examples directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology.
package qsrmine

import (
	"repro/internal/colocation"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/de9im"
	"repro/internal/gain"
	"repro/internal/geom"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/qsr"
	"repro/internal/taxonomy"
	"repro/internal/transact"
)

// Geometry types. See the geom package documentation for details; these
// aliases are the supported public surface.
type (
	// Geometry is any planar geometry value.
	Geometry = geom.Geometry
	// Point is a single position (and a Geometry).
	Point = geom.Point
	// MultiPoint is a point collection.
	MultiPoint = geom.MultiPoint
	// LineString is a polyline.
	LineString = geom.LineString
	// MultiLineString is a polyline collection.
	MultiLineString = geom.MultiLineString
	// Polygon is an area with optional holes.
	Polygon = geom.Polygon
	// MultiPolygon is a polygon collection.
	MultiPolygon = geom.MultiPolygon
	// Envelope is an axis-aligned bounding box.
	Envelope = geom.Envelope
)

// Geometry constructors and helpers.
var (
	// Pt constructs a Point.
	Pt = geom.Pt
	// Line constructs a LineString from coordinates.
	Line = geom.Line
	// Poly constructs a hole-free Polygon from shell coordinates.
	Poly = geom.Poly
	// Rect constructs an axis-aligned rectangular Polygon.
	Rect = geom.Rect
	// ParseWKT parses well-known text.
	ParseWKT = geom.ParseWKT
)

// DE9IM is a computed 9-intersection matrix.
type DE9IM = de9im.Matrix

// Relate computes the DE-9IM matrix of two geometries.
var Relate = de9im.Relate

// Qualitative relation vocabulary.
type (
	// Relation is a qualitative spatial relation (topological, distance,
	// or directional).
	Relation = qsr.Relation
	// Predicate couples a relation with a relevant feature type.
	Predicate = qsr.Predicate
	// DistanceThresholds cuts distances into veryCloseTo/closeTo/farFrom.
	DistanceThresholds = qsr.DistanceThresholds
)

// Topological relations (the canonical, mutually exclusive Egenhofer set).
const (
	Equals    = qsr.Equals
	Disjoint  = qsr.Disjoint
	Touches   = qsr.Touches
	Contains  = qsr.Contains
	Within    = qsr.Within
	Covers    = qsr.Covers
	CoveredBy = qsr.CoveredBy
	Crosses   = qsr.Crosses
	Overlaps  = qsr.Overlaps
	VeryClose = qsr.VeryClose
	CloseTo   = qsr.CloseTo
	FarFrom   = qsr.FarFrom
	NorthOf   = qsr.NorthOf
	SouthOf   = qsr.SouthOf
	EastOf    = qsr.EastOf
	WestOf    = qsr.WestOf
)

// Relation computations.
var (
	// Topological classifies the canonical topological relation.
	Topological = qsr.Topological
	// DistanceRelation classifies the qualitative distance.
	DistanceRelation = qsr.DistanceRelation
	// Directional classifies the dominant cardinal direction.
	Directional = qsr.Directional
)

// Spatial data model.
type (
	// Dataset is a mining input: a reference layer plus relevant layers.
	Dataset = dataset.Dataset
	// Layer is a homogeneous feature collection of one feature type.
	Layer = dataset.Layer
	// Feature is one spatial object with attributes.
	Feature = dataset.Feature
	// Value is a non-spatial attribute value (string or numeric), the
	// element type of Feature.Attrs and Op.Attrs.
	Value = dataset.Value
	// Table is a transaction table (the miner's direct input).
	Table = dataset.Table
	// Transaction is one row of a Table.
	Transaction = dataset.Transaction
	// Op is one dataset mutation (insert/update/delete of a feature).
	Op = dataset.Op
	// Mutation is an atomic batch of ops (the -mutate file format).
	Mutation = dataset.Mutation
	// ChangeSet is the structured diff between a dataset and its
	// mutated successor, as produced by Dataset.ApplyOps.
	ChangeSet = dataset.ChangeSet
	// LayerDiff is the per-layer slice of a ChangeSet.
	LayerDiff = dataset.LayerDiff
)

// Mutation op actions, the Op.Action values.
const (
	OpInsert = dataset.OpInsert
	OpUpdate = dataset.OpUpdate
	OpDelete = dataset.OpDelete
)

// Data model constructors and samples.
var (
	// NewLayer constructs an empty layer of a feature type.
	NewLayer = dataset.NewLayer
	// NewTable normalises raw transactions into a Table.
	NewTable = dataset.NewTable
	// LoadDataset reads a dataset from a JSON file (WKT geometries).
	LoadDataset = dataset.LoadJSON
	// LoadTable reads a transaction table from a CSV file.
	LoadTable = dataset.LoadTableCSV
	// LoadMutation reads a mutation batch ({"ops":[...]}) from a JSON
	// file.
	LoadMutation = dataset.LoadMutation
	// PortoAlegreTable is the paper's Table 1, verbatim.
	PortoAlegreTable = dataset.PortoAlegreTable
	// PortoAlegreScene is a geometric scene extracting to Table 1.
	PortoAlegreScene = dataset.PortoAlegreScene
	// Table2Reconstruction is the Table 2-consistent 6-district dataset.
	Table2Reconstruction = dataset.Table2Reconstruction
)

// Predicate extraction.
type (
	// ExtractOptions configures predicate extraction.
	ExtractOptions = transact.Options
	// Granularity selects type-level or instance-level predicates.
	Granularity = transact.Granularity
	// ExtractState is a reusable extraction state: a full extraction
	// that can absorb dataset mutations incrementally via Apply,
	// recomputing only the rows whose dirty region a change touches.
	ExtractState = transact.State
	// TableDelta describes what one Apply changed: the old→new row
	// mapping plus per-row item edits, with reuse counters.
	TableDelta = transact.TableDelta
)

// Extraction helpers.
var (
	// Extract computes the transaction table of a dataset.
	Extract = transact.Extract
	// ExtractContext is Extract with cancellation and tracing.
	ExtractContext = transact.ExtractContext
	// DefaultExtractOptions is topological extraction at type
	// granularity with R-tree acceleration.
	DefaultExtractOptions = transact.DefaultOptions
	// NewExtractStateContext runs a full extraction, with cancellation
	// and tracing, and keeps the intermediate structures for
	// incremental re-extraction.
	NewExtractStateContext = transact.NewStateContext
)

// Extraction granularities.
const (
	// TypeLevel names predicates by feature type ("contains_slum").
	TypeLevel = transact.TypeLevel
	// InstanceLevel names predicates by instance ("contains_slum159").
	InstanceLevel = transact.InstanceLevel
)

// Mining.
type (
	// Config parameterises a pipeline run. It round-trips through JSON
	// with deterministic encoding: enums use their textual names (the
	// same ones the CLI flags accept), the built-in discretizers encode
	// as a tagged union, and unknown fields or enum names are rejected
	// with a descriptive error. This is the wire format of the qsrmined
	// HTTP service and the canonical form its result cache keys on.
	Config = core.Config
	// Outcome bundles the pipeline products.
	Outcome = core.Outcome
	// Algorithm selects the mining variant.
	Algorithm = core.Algorithm
	// DependencyPair is one Φ entry (a well-known dependency).
	DependencyPair = mining.Pair
	// MiningResult is a mining result with pass statistics.
	MiningResult = mining.Result
	// FrequentItemset couples an itemset with its support count.
	FrequentItemset = mining.FrequentItemset
	// Rule is an association rule with interestingness measures.
	Rule = mining.Rule
	// Itemset is a set of interned items.
	Itemset = itemset.Itemset
	// Dictionary interns item strings and their semantics.
	Dictionary = itemset.Dictionary
	// DB is an interned transaction database.
	DB = itemset.DB
)

// Algorithms.
const (
	// Apriori is the unfiltered baseline.
	Apriori = core.AlgApriori
	// AprioriKC filters the dependency set Φ at pass k=2.
	AprioriKC = core.AlgAprioriKC
	// AprioriKCPlus additionally filters same-feature-type pairs — the
	// paper's contribution.
	AprioriKCPlus = core.AlgAprioriKCPlus
	// EclatKCPlus mines the Apriori-KC+ pattern set with the vertical
	// Eclat engine (tidsets with dEclat diffset switching).
	EclatKCPlus = core.AlgEclatKCPlus
)

// Post filters (the paper's future-work redundancy elimination).
const (
	// NoPostFilter keeps all frequent itemsets.
	NoPostFilter = core.NoPostFilter
	// ClosedFilter keeps only closed itemsets.
	ClosedFilter = core.ClosedFilter
	// MaximalFilter keeps only maximal itemsets.
	MaximalFilter = core.MaximalFilter
)

// Pipeline entry points and mining helpers.
var (
	// Run executes extraction + mining (+ rules) on a dataset.
	Run = core.Run
	// RunContext is Run honouring context cancellation/deadlines and
	// emitting observability events (see NewTrace / WithTrace).
	RunContext = core.RunContext
	// RunTable executes mining (+ rules) on a transaction table.
	RunTable = core.RunTable
	// RunTableContext is RunTable with cancellation and tracing.
	RunTableContext = core.RunTableContext
	// RunStateContext executes mining (+ rules) on the current table
	// of an ExtractState, with cancellation and tracing; it renders no
	// string rows, so the Outcome's Table is nil (ExtractState.Table
	// renders them).
	RunStateContext = core.RunStateContext
	// ProfileTable summarises a table's predicate statistics.
	ProfileTable = transact.Profile
)

// Spatial co-location mining: prevalent feature-type sets under a
// neighborhood distance, measured by the anti-monotone participation
// index — the sibling workload to the reference-feature transaction
// pipeline (every layer a peer type, no extraction, no transactions).
type (
	// ColocationConfig parameterises a co-location run (distance, minPI,
	// optional maxSize, and topK); its JSON form is the wire
	// configuration of POST /v1/colocate.
	ColocationConfig = colocation.Config
	// ColocationResult is a co-location run's output.
	ColocationResult = colocation.Result
	// ColocationPattern is one prevalent co-location.
	ColocationPattern = colocation.Pattern
)

// ColocateContext mines co-location patterns over a dataset's layers,
// with cancellation and tracing.
var ColocateContext = colocation.MineContext

// Gain analysis (the paper's Formula 1).
var (
	// MinGain is the minimal number of itemsets the same-feature filter
	// eliminates, from the largest itemset's composition.
	MinGain = gain.MinGain
	// GainTable3 regenerates the paper's Table 3 grid.
	GainTable3 = gain.Table3
	// TotalLowerBound is the sum-of-binomials bound of Section 4.1.
	TotalLowerBound = gain.TotalLowerBound
)

// Observability: stage tracing, pass metrics, and counters for
// context-aware pipeline runs. Attach a Trace to a context with
// WithTrace and pass it to RunContext/RunTableContext/ExtractContext.
type (
	// Trace is the per-run observability handle (nil is a valid no-op).
	Trace = obs.Trace
	// TraceSink receives trace events; see NewTraceCollector and
	// NewTextTraceSink.
	TraceSink = obs.Sink
	// TraceEvent is one observation (stage begin/end or mining pass).
	TraceEvent = obs.Event
	// TraceCollector retains events in memory with typed views.
	TraceCollector = obs.Collector
	// PassEvent carries one mining pass's candidate/pruned/frequent
	// counts.
	PassEvent = obs.PassEvent
	// StageRecord is one completed pipeline stage with its wall time.
	StageRecord = obs.StageRecord
	// TraceMetrics is the machine-readable summary of a traced run.
	TraceMetrics = obs.Metrics
)

// Observability constructors and helpers.
var (
	// NewTrace creates a Trace emitting to a sink (nil sink: counters
	// only).
	NewTrace = obs.New
	// WithTrace attaches a Trace to a context.
	WithTrace = obs.WithTrace
	// NewTraceCollector creates an in-memory event collector.
	NewTraceCollector = obs.NewCollector
	// NewTextTraceSink streams human-readable trace lines to a writer.
	NewTextTraceSink = obs.NewTextSink
	// MultiTraceSink fans events out to several sinks.
	MultiTraceSink = obs.Multi
	// FormatTraceCounters renders a counter snapshot as sorted lines.
	FormatTraceCounters = obs.FormatCounters
)

// Interestingness measures (the transactional filtering approach the
// paper contrasts with).
type Measure = mining.Measure

// Measure evaluation helpers.
var (
	// EvaluateMeasure computes a measure for a rule against a result.
	EvaluateMeasure = mining.Evaluate
	// RankRules orders rules by a measure, descending.
	RankRules = mining.RankRules
	// AllMeasures lists the supported measures.
	AllMeasures = mining.AllMeasures
)

// RCC8 qualitative spatial reasoning (region connection calculus).
type (
	// RCC8 is a base relation of the region connection calculus.
	RCC8 = qsr.RCC8
	// RCC8Set is a disjunction of RCC8 base relations.
	RCC8Set = qsr.RCC8Set
	// RCC8Network is a constraint network with a path-consistency solver.
	RCC8Network = qsr.Network
)

// Taxonomy is a feature-type concept hierarchy for multi-level mining
// (the paper's "general granularity levels").
type Taxonomy = taxonomy.Hierarchy

// Taxonomy helpers.
var (
	// NewTaxonomy creates an empty feature-type hierarchy.
	NewTaxonomy = taxonomy.NewHierarchy
	// GeneralizeTable rewrites a table's spatial predicates to a
	// granularity level of the hierarchy.
	GeneralizeTable = taxonomy.GeneralizeTable
)

// RCC8 helpers.
var (
	// RCC8Of classifies two region geometries into RCC8.
	RCC8Of = qsr.RCC8Of
	// ComposeRCC8 returns the composition-table entry of two relations.
	ComposeRCC8 = qsr.Compose
	// NewRCC8Network creates an unconstrained constraint network.
	NewRCC8Network = qsr.NewNetwork
	// RCC8NetworkFromScene observes the network of a set of regions.
	RCC8NetworkFromScene = qsr.NetworkFromScene
)
