package colfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/row"
	"repro/internal/types"
)

// Provider returns the colfile relation provider. Options:
//
//	path (required) file path
func Provider() datasource.Provider {
	return datasource.ProviderFunc(func(options map[string]string) (datasource.Relation, error) {
		path := options["path"]
		if path == "" {
			return nil, fmt.Errorf("colfile: missing required option 'path'")
		}
		return Open(path)
	})
}

// chunk is a decoded column chunk location within the raw file bytes.
type chunk struct {
	mn, mx any
	// bitmap of non-null rows, then the value bytes.
	bitmap []byte
	data   []byte
}

// rowGroup holds per-column chunks.
type rowGroup struct {
	numRows int
	chunks  []chunk
}

// Relation is an opened columnar file.
type Relation struct {
	path   string
	schema types.StructType
	groups []rowGroup
	size   int64
}

var (
	_ datasource.PrunedFilteredScan = (*Relation)(nil)
	_ datasource.ColumnarScan       = (*Relation)(nil)
	_ datasource.ExactFilterScan    = (*Relation)(nil)
	_ datasource.SizedRelation      = (*Relation)(nil)
)

// Open memory-maps (reads) the file and indexes row groups and chunks.
func Open(path string) (*Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("colfile: %w", err)
	}
	r := &reader{data: data}
	var m [4]byte
	copy(m[:], r.bytes(4))
	if m != magic {
		return nil, fmt.Errorf("colfile: %s is not a columnar file", path)
	}
	nFields := int(r.u32())
	var schema types.StructType
	for i := 0; i < nFields; i++ {
		name := r.str()
		t, err := typeOf(r.byte())
		if err != nil {
			return nil, err
		}
		nullable := r.byte() == 1
		schema = schema.Add(name, t, nullable)
	}
	nGroups := int(r.u32())
	rel := &Relation{path: path, schema: schema, size: int64(len(data))}
	for g := 0; g < nGroups; g++ {
		numRows := int(r.u32())
		rg := rowGroup{numRows: numRows, chunks: make([]chunk, nFields)}
		for j := 0; j < nFields; j++ {
			t := schema.Fields[j].Type
			c := chunk{bitmap: r.bytes((numRows + 7) / 8)}
			nonNull := 0
			for i := 0; i < numRows; i++ {
				if c.bitmap[i/8]&(1<<(uint(i)%8)) != 0 {
					nonNull++
				}
			}
			if r.byte() == 1 {
				c.mn = r.value(t)
			}
			if r.byte() == 1 {
				c.mx = r.value(t)
			}
			c.data = r.valueBlock(t, nonNull)
			rg.chunks[j] = c
		}
		rel.groups = append(rel.groups, rg)
	}
	if r.err != nil {
		return nil, fmt.Errorf("colfile: corrupt file %s: %w", path, r.err)
	}
	return rel, nil
}

// Schema implements datasource.Relation.
func (rel *Relation) Schema() types.StructType { return rel.schema }

// SizeInBytes implements datasource.SizedRelation.
func (rel *Relation) SizeInBytes() int64 { return rel.size }

// HandledFilters implements datasource.ExactFilterScan: every filter in the
// simple algebra is evaluated exactly.
func (rel *Relation) HandledFilters(filters []datasource.Filter) []datasource.Filter {
	return filters
}

// NumRowGroups reports the group count (tests).
func (rel *Relation) NumRowGroups() int { return len(rel.groups) }

// ScanPrunedFiltered implements datasource.PrunedFilteredScan by boxing the
// selected rows of ScanColumnar's batches.
func (rel *Relation) ScanPrunedFiltered(columns []string, filters []datasource.Filter) (datasource.Scan, error) {
	batches, err := rel.ScanColumnar(columns, filters)
	if err != nil {
		return datasource.Scan{}, err
	}
	return datasource.Scan{
		NumPartitions: batches.NumPartitions,
		Partition: func(p int) []row.Row {
			var out []row.Row
			batches.Partition(p, func(b datasource.Batch) {
				for _, i := range b.Sel {
					rr := make(row.Row, len(b.Cols))
					for k, v := range b.Cols {
						rr[k] = v.Get(int(i))
					}
					out = append(out, rr)
				}
			})
			return out
		},
	}, nil
}

// ScanColumnar implements datasource.ColumnarScan. Each row group is one
// partition, decoded in batches of columnar.DefaultBatchSize rows. Groups
// whose stats cannot match are skipped, only the requested and filtered
// columns are decoded, and the requested ones only for batches where some
// row passes the filters.
func (rel *Relation) ScanColumnar(columns []string, filters []datasource.Filter) (datasource.Batches, error) {
	ords := make([]int, len(columns))
	for i, c := range columns {
		j := rel.schema.FieldIndex(c)
		if j < 0 {
			return datasource.Batches{}, fmt.Errorf("colfile: unknown column %q", c)
		}
		ords[i] = j
	}
	filterOrds := make([]int, len(filters))
	for i, f := range filters {
		j := rel.schema.FieldIndex(f.Attribute())
		if j < 0 {
			return datasource.Batches{}, fmt.Errorf("colfile: filter on unknown column %q", f.Attribute())
		}
		filterOrds[i] = j
	}
	groups := rel.groups
	return datasource.Batches{
		NumPartitions: len(groups),
		Partition: func(p int, fn func(datasource.Batch)) {
			g := groups[p]
			if !rel.groupMayMatch(g, filters, filterOrds) {
				return
			}
			rel.decodeGroup(g, ords, filters, filterOrds, fn)
		},
	}, nil
}

// decodeGroup streams one row group as batches: the filter columns decode
// first and narrow the selection, then the requested columns decode for
// batches with surviving rows (the rest are skipped without decoding).
func (rel *Relation) decodeGroup(g rowGroup, ords []int, filters []datasource.Filter, filterOrds []int,
	fn func(datasource.Batch)) {
	cursors := make([]*chunkCursor, len(rel.schema.Fields))
	for _, j := range slices.Concat(ords, filterOrds) {
		if cursors[j] == nil {
			cursors[j] = newChunkCursor(rel.schema.Fields[j].Type, g.chunks[j])
		}
	}
	for lo := 0; lo < g.numRows; lo += columnar.DefaultBatchSize {
		n := min(columnar.DefaultBatchSize, g.numRows-lo)
		vecs := make([]*columnar.Vector, len(cursors))
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
		for i, f := range filters {
			j := filterOrds[i]
			if vecs[j] == nil {
				vecs[j] = cursors[j].next(n)
			}
			if sel = datasource.Select(f, vecs[j], sel); len(sel) == 0 {
				break
			}
		}
		if len(sel) == 0 {
			for j, cur := range cursors {
				if cur != nil && vecs[j] == nil {
					cur.skip(n)
				}
			}
			continue
		}
		cols := make([]*columnar.Vector, len(ords))
		for k, j := range ords {
			if vecs[j] == nil {
				vecs[j] = cursors[j].next(n)
			}
			cols[k] = vecs[j]
		}
		fn(datasource.Batch{Cols: cols, N: n, Sel: sel})
	}
}

// groupMayMatch tests filters against chunk min/max stats.
func (rel *Relation) groupMayMatch(g rowGroup, filters []datasource.Filter, filterOrds []int) bool {
	for i, f := range filters {
		c := g.chunks[filterOrds[i]]
		if c.mn == nil || c.mx == nil {
			// All-NULL chunk: only IS NOT NULL filters prune it.
			if _, ok := f.(datasource.IsNotNull); ok {
				return false
			}
			continue
		}
		switch x := f.(type) {
		case datasource.EqualTo:
			if row.Compare(x.Value, c.mn) < 0 || row.Compare(x.Value, c.mx) > 0 {
				return false
			}
		case datasource.GreaterThan:
			if row.Compare(c.mx, x.Value) <= 0 {
				return false
			}
		case datasource.GreaterOrEqual:
			if row.Compare(c.mx, x.Value) < 0 {
				return false
			}
		case datasource.LessThan:
			if row.Compare(c.mn, x.Value) >= 0 {
				return false
			}
		case datasource.LessOrEqual:
			if row.Compare(c.mn, x.Value) > 0 {
				return false
			}
		}
	}
	return true
}

// chunkCursor decodes one column chunk batch by batch straight into typed
// vectors: INT/DATE and BIGINT/TIMESTAMP into int64 lanes, DOUBLE into
// float64, BOOLEAN into bool and STRING into substrings of one string made
// per chunk, so decoding allocates per batch, never per value.
type chunkCursor struct {
	t   types.DataType
	tag byte
	c   chunk
	// str holds a STRING chunk's value bytes, made on the first decode so
	// chunks whose batches are all skipped never copy them.
	str string
	row int // next row to decode
	pos int // byte offset of the next non-NULL value in c.data
}

func newChunkCursor(t types.DataType, c chunk) *chunkCursor {
	tag, _ := tagOf(t) // Open accepted the schema
	return &chunkCursor{t: t, tag: tag, c: c}
}

func (cur *chunkCursor) valid(r int) bool {
	return cur.c.bitmap[r/8]&(1<<(uint(r)%8)) != 0
}

// next decodes the following n rows.
func (cur *chunkCursor) next(n int) *columnar.Vector {
	v := columnar.NewVector(cur.t, n)
	data, lo, pos := cur.c.data, cur.row, cur.pos
	switch cur.tag {
	case tagBool:
		for i := 0; i < n; i++ {
			if !cur.valid(lo + i) {
				v.SetNull(i)
				continue
			}
			v.Bool[i] = data[pos] == 1
			pos++
		}
	case tagInt, tagDate:
		for i := 0; i < n; i++ {
			if !cur.valid(lo + i) {
				v.SetNull(i)
				continue
			}
			v.I64[i] = int64(int32(binary.LittleEndian.Uint32(data[pos:])))
			pos += 4
		}
	case tagLong, tagTimestamp:
		for i := 0; i < n; i++ {
			if !cur.valid(lo + i) {
				v.SetNull(i)
				continue
			}
			v.I64[i] = int64(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
	case tagDouble:
		for i := 0; i < n; i++ {
			if !cur.valid(lo + i) {
				v.SetNull(i)
				continue
			}
			v.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
	case tagString:
		if cur.str == "" {
			cur.str = string(data)
		}
		for i := 0; i < n; i++ {
			if !cur.valid(lo + i) {
				v.SetNull(i)
				continue
			}
			end := pos + 4 + int(binary.LittleEndian.Uint32(data[pos:]))
			v.Str[i] = cur.str[pos+4 : end]
			pos = end
		}
	}
	cur.row, cur.pos = lo+n, pos
	return v
}

// skip advances past the following n rows without decoding them.
func (cur *chunkCursor) skip(n int) {
	for r := cur.row; r < cur.row+n; r++ {
		if cur.valid(r) {
			cur.pos += cur.width()
		}
	}
	cur.row += n
}

// width is the encoded size of the non-NULL value at pos.
func (cur *chunkCursor) width() int {
	switch cur.tag {
	case tagBool:
		return 1
	case tagInt, tagDate:
		return 4
	case tagString:
		return 4 + int(binary.LittleEndian.Uint32(cur.c.data[cur.pos:]))
	}
	return 8
}

// ---------------------------------------------------------------------------
// Low-level reader

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) bytes(n int) []byte {
	if r.pos+n > len(r.data) {
		r.err = fmt.Errorf("unexpected EOF at %d", r.pos)
		r.pos = len(r.data)
		return make([]byte, n)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) byte() byte  { return r.bytes(1)[0] }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }
func (r *reader) str() string { return string(r.bytes(int(r.u32()))) }

func (r *reader) value(t types.DataType) any {
	switch {
	case t.Equals(types.Boolean):
		return r.byte() == 1
	case t.Equals(types.Int), t.Equals(types.Date):
		return int32(r.u32())
	case t.Equals(types.Long), t.Equals(types.Timestamp):
		return int64(r.u64())
	case t.Equals(types.Double):
		return math.Float64frombits(r.u64())
	case t.Equals(types.String):
		return r.str()
	}
	r.err = fmt.Errorf("unsupported type %s", t.Name())
	return nil
}

// valueBlock slices out the raw bytes for nonNull values of type t.
func (r *reader) valueBlock(t types.DataType, nonNull int) []byte {
	start := r.pos
	switch {
	case t.Equals(types.Boolean):
		r.bytes(nonNull)
	case t.Equals(types.Int), t.Equals(types.Date):
		r.bytes(4 * nonNull)
	case t.Equals(types.Long), t.Equals(types.Timestamp), t.Equals(types.Double):
		r.bytes(8 * nonNull)
	case t.Equals(types.String):
		for i := 0; i < nonNull; i++ {
			r.bytes(int(r.u32()))
		}
	default:
		r.err = fmt.Errorf("unsupported type %s", t.Name())
	}
	if r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}
