package eval

import (
	"fmt"
	"strings"
)

// Confusion is a per-class confusion matrix over prediction outcomes,
// the diagnostic behind the macro-averaged metrics: rows are true labels,
// columns are predicted labels, plus an abstention column.
type Confusion struct {
	// Classes fixes the row/column order.
	Classes []string
	// Counts[i][j] counts samples with true class i predicted as class j.
	// A sample with tied true labels is attributed like Compute does: to
	// the predicted label when correct, to its primary label otherwise.
	Counts [][]int
	// Abstained[i] counts abstentions per true class.
	Abstained []int
}

// NewConfusion tallies outcomes into a confusion matrix.
func NewConfusion(outcomes []Outcome, classes []string) *Confusion {
	idx := make(map[string]int, len(classes))
	for i, c := range classes {
		idx[c] = i
	}
	cm := &Confusion{
		Classes:   append([]string(nil), classes...),
		Counts:    make([][]int, len(classes)),
		Abstained: make([]int, len(classes)),
	}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, len(classes))
	}
	for _, o := range outcomes {
		if len(o.Actual) == 0 {
			continue
		}
		truth := o.Actual[0]
		if o.Correct() {
			truth = o.Predicted
		}
		ti, ok := idx[truth]
		if !ok {
			continue
		}
		if !o.Covered {
			cm.Abstained[ti]++
			continue
		}
		pi, ok := idx[o.Predicted]
		if !ok {
			continue
		}
		cm.Counts[ti][pi]++
	}
	return cm
}

// Total returns the number of tallied (covered) predictions.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Diagonal returns the number of correct predictions.
func (c *Confusion) Diagonal() int {
	n := 0
	for i := range c.Counts {
		n += c.Counts[i][i]
	}
	return n
}

// String renders the matrix with aligned columns, truth down the side and
// predictions across the top.
func (c *Confusion) String() string {
	width := 9
	for _, cl := range c.Classes {
		if len(cl)+2 > width {
			width = len(cl) + 2
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s", width, "truth\\pred")
	for _, cl := range c.Classes {
		fmt.Fprintf(&b, "%*s", width, cl)
	}
	fmt.Fprintf(&b, "%*s\n", width, "abstain")
	for i, cl := range c.Classes {
		fmt.Fprintf(&b, "%*s", width, cl)
		for j := range c.Classes {
			fmt.Fprintf(&b, "%*d", width, c.Counts[i][j])
		}
		fmt.Fprintf(&b, "%*d\n", width, c.Abstained[i])
	}
	return b.String()
}

// EvaluateKNNDetailed runs the same LOOCV as EvaluateKNN but additionally
// returns the raw outcomes and the confusion matrix.
func (e *EvalSet) EvaluateKNNDetailed(cfg KNNConfig) (Metrics, []Outcome, *Confusion) {
	outcomes, _ := e.knnOutcomes(nil, cfg) // a nil ctx never cancels
	classes := e.I.Names()
	return Compute(outcomes, classes), outcomes, NewConfusion(outcomes, classes)
}
