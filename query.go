package tapejoin

import (
	"fmt"
	"time"

	"repro/internal/join"
	"repro/internal/query"
)

// ColType is a table column type.
type ColType = query.Type

// Column types.
const (
	Int64Col  = query.Int64
	FloatCol  = query.Float64
	StringCol = query.String
)

// Column is a named, typed table column.
type Column = query.Column

// Value is a column value: int64, float64 or string.
type Value = query.Value

// Row is one tuple's typed values.
type Row = query.Row

// Expr is a scalar expression over a joined row pair; build with Col,
// Lit, Cmp, And, Or, Not.
type Expr = query.Expr

// Expression constructors, re-exported from the query layer.
var (
	// Lit makes a literal operand.
	Lit = query.Lit
	// Cmp compares two same-typed expressions with a CmpOp.
	Cmp = query.Cmp
	// And is true when every operand is non-zero.
	And = query.And
	// Or is true when any operand is non-zero.
	Or = query.Or
	// Not negates a boolean expression.
	Not = query.Not
)

// Comparison operators for Cmp.
const (
	Eq = query.Eq
	Ne = query.Ne
	Lt = query.Lt
	Le = query.Le
	Gt = query.Gt
	Ge = query.Ge
)

// Agg is one aggregate output (function + argument expression).
type Agg = query.Agg

// AggFn is an aggregate function for Agg.
type AggFn = query.AggFn

// Aggregate functions.
const (
	CountAgg = query.Count
	SumAgg   = query.Sum
	MinAgg   = query.Min
	MaxAgg   = query.Max
)

// RCol references a column of the smaller (R) table.
func RCol(name string) Expr { return query.Col(query.SideR, name) }

// SCol references a column of the larger (S) table.
func SCol(name string) Expr { return query.Col(query.SideS, name) }

// TableSpec describes a typed table to generate onto a cartridge.
// Column 0 is the join key and must be Int64Col.
type TableSpec struct {
	// Name identifies the table.
	Name string
	// SizeMB is the table size in megabytes.
	SizeMB int64
	// Columns gives the schema; column 0 is the join key.
	Columns []Column
	// Rows supplies the non-key values of each row from its ordinal
	// and join key; nil derives deterministic defaults.
	Rows func(ordinal int64, key uint64) []Value
	// TuplesPerBlock, KeySpace and Seed mirror RelationConfig.
	TuplesPerBlock int
	KeySpace       uint64
	Seed           int64
}

// Table is a typed relation on tape, queryable with RunQuery.
type Table struct {
	tbl *query.Table
}

// Name returns the table name.
func (t *Table) Name() string { return t.tbl.Rel.Name }

// SizeMB returns the table size.
func (t *Table) SizeMB() int64 { return t.tbl.Rel.Region.N / BlocksPerMB }

// Rows returns the row count.
func (t *Table) Rows() int64 { return t.tbl.Rel.Tuples() }

// CreateTable generates a typed table onto the cartridge.
func (s *System) CreateTable(t *Tape, spec TableSpec) (*Table, error) {
	if spec.TuplesPerBlock == 0 {
		spec.TuplesPerBlock = 4
	}
	if spec.KeySpace == 0 {
		spec.KeySpace = 1_000_000
	}
	s.nextTag++
	tbl, err := query.CreateTable(t.media, query.TableConfig{
		Name:           spec.Name,
		Tag:            s.nextTag,
		Blocks:         MB(spec.SizeMB),
		TuplesPerBlock: spec.TuplesPerBlock,
		KeySpace:       spec.KeySpace,
		Seed:           spec.Seed,
		Schema:         query.Schema(spec.Columns),
		Rows:           spec.Rows,
	})
	if err != nil {
		return nil, err
	}
	return &Table{tbl: tbl}, nil
}

// QuerySpec is an equi-join of two tables on their key columns with an
// optional post-join predicate and projection — the relational face of
// the tertiary join methods.
type QuerySpec struct {
	// R is the smaller table, S the larger.
	R, S *Table
	// Where filters joined pairs (int64-typed, 0 drops); nil keeps all.
	Where Expr
	// Select lists output expressions; empty counts rows only.
	// Mutually exclusive with Aggregates.
	Select []Expr
	// GroupBy and Aggregates fold the filtered join output into
	// grouped aggregates: one result row per group, group-by values
	// first, then one column per aggregate.
	GroupBy    []Expr
	Aggregates []Agg
	// Method forces a join method; empty lets the cost model choose.
	Method Method
	// Limit caps the rows materialized into QueryResult.Rows (default
	// 1000). It is presentation-only: the join still runs to completion
	// and Count stays exact. To stop the join itself, use StopAfter.
	Limit int
	// StopAfter, when positive, terminates the join after n output
	// pairs: a true LIMIT-n execution that stops reading the tapes.
	// The planner then prefers the streaming SYM-H method, Count covers
	// only the delivered prefix, and QueryResult.Stopped reports the
	// early exit. Incompatible with Aggregates.
	StopAfter int64
}

// QueryResult is the outcome of RunQuery.
type QueryResult struct {
	// Method is the join method the planner chose (or was forced).
	Method Method
	// Rows holds up to Limit projected rows.
	Rows []Row
	// Count is the exact number of joined pairs passing Where.
	Count int64
	// JoinMatches is the raw join cardinality before Where.
	JoinMatches int64
	// Stopped reports that StopAfter ended the join early; Count and
	// JoinMatches then cover only the delivered prefix.
	Stopped bool
	// Response is the join's virtual response time.
	Response time.Duration
	// FirstTuple is the virtual time from start to the first delivered
	// pair (zero when the join produced no output).
	FirstTuple time.Duration
}

// RunQuery plans and executes the query on this system: the cost model
// picks the cheapest feasible join method for the device complex, the
// join runs in the simulator, and the predicate and projection are
// evaluated on its output stream.
func (s *System) RunQuery(spec QuerySpec) (*QueryResult, error) {
	if spec.R == nil || spec.S == nil {
		return nil, fmt.Errorf("tapejoin: query needs both tables")
	}
	var forced string
	if spec.Method != "" {
		if _, err := join.BySymbol(string(spec.Method)); err != nil {
			return nil, err
		}
		forced = string(spec.Method)
	}
	runRes, err := s.runResources(false)
	if err != nil {
		return nil, err
	}
	res, err := query.Run(query.Query{
		R:          spec.R.tbl,
		S:          spec.S.tbl,
		Where:      spec.Where,
		Select:     spec.Select,
		GroupBy:    spec.GroupBy,
		Aggregates: spec.Aggregates,
		Method:     forced,
		Limit:      spec.Limit,
		StopAfter:  spec.StopAfter,
	}, runRes)
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Method:      Method(res.Method),
		Rows:        res.Rows,
		Count:       res.Count,
		JoinMatches: res.JoinMatches,
		Stopped:     res.Stopped,
		Response:    res.Stats.Response,
		FirstTuple:  time.Duration(res.Stats.FirstTuple),
	}, nil
}
