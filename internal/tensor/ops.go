package tensor

import (
	"fmt"
	"math"
)

// ConcatColsInto concatenates rank-2 tensors with equal row counts along the
// column axis — the operation behind the paper's Concatenate output rule —
// into a caller-provided destination, which must not alias any source.
func ConcatColsInto(dst *Tensor, ts ...*Tensor) {
	if len(ts) == 0 {
		panic("tensor: ConcatColsInto of no tensors")
	}
	rows, total := ts[0].Shape[0], 0
	for _, t := range ts {
		if t.Rank() != 2 {
			panic(fmt.Sprintf("tensor: ConcatColsInto requires rank 2, got %v", t.Shape))
		}
		if t.Shape[0] != rows {
			panic(fmt.Sprintf("tensor: ConcatColsInto row mismatch %d vs %d", t.Shape[0], rows))
		}
		total += t.Shape[1]
	}
	if dst.Rank() != 2 || dst.Shape[0] != rows || dst.Shape[1] != total {
		panic(fmt.Sprintf("tensor: ConcatColsInto destination %v, want [%d %d]", dst.Shape, rows, total))
	}
	assertNoAlias("ConcatColsInto", dst, ts...)
	for i := 0; i < rows; i++ {
		off := i * total
		for _, t := range ts {
			c := t.Shape[1]
			copy(dst.Data[off:off+c], t.Data[i*c:(i+1)*c])
			off += c
		}
	}
}

// SplitColsInto splits a rank-2 tensor into caller-provided column blocks of
// the given widths, which must sum to the column count — the inverse of
// ConcatColsInto, used to route gradients back to the inputs of a
// concatenation; dsts[i] must be [rows, widths[i]] and must not alias t, or
// nil to skip that block.
func SplitColsInto(dsts []*Tensor, t *Tensor, widths []int) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: SplitColsInto requires rank 2, got %v", t.Shape))
	}
	if len(dsts) != len(widths) {
		panic(fmt.Sprintf("tensor: SplitColsInto %d destinations for %d widths", len(dsts), len(widths)))
	}
	total := 0
	for _, w := range widths {
		total += w
	}
	if total != t.Shape[1] {
		panic(fmt.Sprintf("tensor: SplitColsInto widths %v do not sum to %d", widths, t.Shape[1]))
	}
	rows := t.Shape[0]
	for j, d := range dsts {
		if d == nil {
			continue
		}
		if d.Rank() != 2 || d.Shape[0] != rows || d.Shape[1] != widths[j] {
			panic(fmt.Sprintf("tensor: SplitColsInto destination %d is %v, want [%d %d]", j, d.Shape, rows, widths[j]))
		}
		assertNoAlias("SplitColsInto", d, t)
	}
	for i := 0; i < rows; i++ {
		off := i * total
		for j, w := range widths {
			if d := dsts[j]; d != nil {
				copy(d.Data[i*w:(i+1)*w], t.Data[off:off+w])
			}
			off += w
		}
	}
}

// RowSoftmaxInto computes a numerically stable softmax over each row of a
// rank-2 tensor into a same-shaped destination, which must not alias t.
func RowSoftmaxInto(dst, t *Tensor) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: RowSoftmaxInto requires rank 2, got %v", t.Shape))
	}
	rows, cols := t.Shape[0], t.Shape[1]
	if dst.Rank() != 2 || dst.Shape[0] != rows || dst.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: RowSoftmaxInto destination %v, want %v", dst.Shape, t.Shape))
	}
	assertNoAlias("RowSoftmaxInto", dst, t)
	for i := 0; i < rows; i++ {
		row := t.Data[i*cols : (i+1)*cols]
		orow := dst.Data[i*cols : (i+1)*cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - m)
			orow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
}

// ArgmaxRows returns the index of the maximum of each row of a rank-2
// tensor.
func ArgmaxRows(t *Tensor) []int {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows requires rank 2, got %v", t.Shape))
	}
	rows, cols := t.Shape[0], t.Shape[1]
	out := make([]int, rows)
	for i := 0; i < rows; i++ {
		row := t.Data[i*cols : (i+1)*cols]
		best := 0
		for j := 1; j < cols; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// GatherRowsInto copies the given rows of a rank-2 tensor, in order, into a
// caller-provided [len(idx), cols] destination, which must not alias t. This
// is the mini-batch assembly path: train.Fit reuses one destination across
// every batch of an epoch.
func GatherRowsInto(dst, t *Tensor, idx []int) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: GatherRowsInto requires rank 2, got %v", t.Shape))
	}
	cols := t.Shape[1]
	if dst.Rank() != 2 || dst.Shape[0] != len(idx) || dst.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: GatherRowsInto destination %v, want [%d %d]", dst.Shape, len(idx), cols))
	}
	assertNoAlias("GatherRowsInto", dst, t)
	for i, r := range idx {
		if r < 0 || r >= t.Shape[0] {
			panic(fmt.Sprintf("tensor: GatherRowsInto index %d out of range %d", r, t.Shape[0]))
		}
		copy(dst.Data[i*cols:(i+1)*cols], t.Data[r*cols:(r+1)*cols])
	}
}

// ColSumsInto computes the per-column sums of an [r,c] tensor into a
// caller-provided length-c destination, which must not alias t.
func ColSumsInto(dst, t *Tensor) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ColSumsInto requires rank 2, got %v", t.Shape))
	}
	rows, cols := t.Shape[0], t.Shape[1]
	if dst.Rank() != 1 || dst.Shape[0] != cols {
		panic(fmt.Sprintf("tensor: ColSumsInto destination %v, want [%d]", dst.Shape, cols))
	}
	assertNoAlias("ColSumsInto", dst, t)
	dst.Zero()
	for i := 0; i < rows; i++ {
		row := t.Data[i*cols : (i+1)*cols]
		for j, x := range row {
			dst.Data[j] += x
		}
	}
}
