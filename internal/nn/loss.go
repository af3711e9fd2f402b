package nn

import (
	"fmt"
	"math"

	"nasgo/internal/tensor"
)

// MSELossArena returns the mean squared error between pred and target (both
// [batch, d]) and the gradient of the loss with respect to pred, drawn from an
// optional workspace arena (nil means heap). This is the regression loss used
// for the Combo and Uno drug-response problems.
func MSELossArena(ar *tensor.Arena, pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !tensor.SameShape(pred, target) {
		panic(fmt.Sprintf("nn: MSELoss shape mismatch %v vs %v", pred.Shape, target.Shape))
	}
	n := float64(pred.Size())
	grad := ar.Get(pred.Shape...)
	var loss float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += float64(d * d) // a conversion rounds: no fused multiply-add (DESIGN §6)
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// SoftmaxCrossEntropyArena returns the mean cross-entropy of logits [batch, k]
// against integer class labels, and the gradient with respect to the logits;
// the probability and gradient buffers are drawn from an optional workspace
// arena (nil means heap). This is the classification loss of the NT3
// tumor/normal problem.
func SoftmaxCrossEntropyArena(ar *tensor.Arena, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if logits.Rank() != 2 || logits.Shape[0] != len(labels) {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy logits %v vs %d labels", logits.Shape, len(labels)))
	}
	batch, k := logits.Shape[0], logits.Shape[1]
	probs := ar.Get(logits.Shape...)
	tensor.RowSoftmaxInto(probs, logits)
	grad := ar.Get(logits.Shape...)
	var loss float64
	inv := 1 / float64(batch)
	for i := 0; i < batch; i++ {
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range %d", y, k))
		}
		p := probs.Data[i*k+y]
		loss -= math.Log(math.Max(p, 1e-12))
		for j := 0; j < k; j++ {
			g := probs.Data[i*k+j]
			if j == y {
				g -= 1
			}
			grad.Data[i*k+j] = g * inv
		}
	}
	return loss * inv, grad
}

// R2 returns the coefficient of determination of predictions against
// targets, the paper's reward metric for Combo and Uno. A model predicting
// the target mean scores 0; perfect prediction scores 1; worse-than-mean
// models score negative (the paper's reward axes extend to -1).
func R2(pred, target *tensor.Tensor) float64 {
	if !tensor.SameShape(pred, target) {
		panic(fmt.Sprintf("nn: R2 shape mismatch %v vs %v", pred.Shape, target.Shape))
	}
	mean := target.Mean()
	var ssRes, ssTot float64
	for i := range target.Data {
		d := pred.Data[i] - target.Data[i]
		ssRes += float64(d * d) // a conversion rounds: no fused multiply-add (DESIGN §6)
		m := target.Data[i] - mean
		ssTot += float64(m * m)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
