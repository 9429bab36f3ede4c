package lightne

import (
	"lightne/internal/eval"
	"lightne/internal/gen"
)

// Evaluation re-exports: the paper's downstream protocols (§5.1).

// TrainConfig controls the one-vs-rest logistic regression used for node
// classification.
type TrainConfig = eval.TrainConfig

// ClassificationResult reports Micro/Macro-F1 and split sizes.
type ClassificationResult = eval.ClassificationResult

// RankingResult reports MR, MRR and HITS@K for link prediction.
type RankingResult = eval.RankingResult

// DefaultTrainConfig returns the logistic-regression defaults.
func DefaultTrainConfig() TrainConfig { return eval.DefaultTrain() }

// NodeClassification evaluates an embedding on multi-label node
// classification: it trains one-vs-rest logistic regression on a trainRatio
// fraction of the labeled vertices and reports Micro/Macro-F1 on the rest
// using the top-k prediction rule.
func NodeClassification(x *Matrix, labels [][]int, numClasses int, trainRatio float64, seed uint64, cfg TrainConfig) (ClassificationResult, error) {
	return eval.NodeClassification(x, labels, numClasses, trainRatio, seed, cfg)
}

// SplitEdges removes a random testFrac of undirected edges for link
// prediction, returning the training graph and held-out edges.
func SplitEdges(g *Graph, testFrac float64, seed uint64) (*Graph, []Edge, error) {
	return eval.SplitEdges(g, testFrac, seed)
}

// AUC estimates link-prediction ROC-AUC of embedding x on held-out edges.
func AUC(x *Matrix, test []Edge, negatives int, seed uint64) float64 {
	return eval.AUC(x, test, negatives, seed)
}

// Ranking computes PBG-style filtered ranking metrics (MR, MRR, HITS@K).
func Ranking(x *Matrix, test []Edge, negatives int, ks []int, seed uint64) RankingResult {
	return eval.Ranking(x, test, negatives, ks, seed)
}

// Dataset generators: deterministic synthetic replicas of the paper's nine
// evaluation graphs (see DESIGN.md for the substitution rationale).

// Labels is a multi-label assignment over vertices.
type Labels = gen.Labels

// Dataset is a named synthetic replica with optional planted labels.
type Dataset = gen.Dataset

// GenerateDataset builds the named replica ("blogcatalog-like",
// "oag-like", …); DatasetNames lists the options.
func GenerateDataset(name string, seed uint64) (*Dataset, error) {
	return gen.ByName(name, seed)
}

// DatasetNames lists every synthetic replica name.
func DatasetNames() []string { return gen.AllNames() }

// Neighbor is one nearest-neighbor query result.
type Neighbor = eval.Neighbor

// NearestNeighbors returns the k vertices most cosine-similar to v in
// embedding x — the recommendation-style query embeddings serve downstream.
func NearestNeighbors(x *Matrix, v, k int) ([]Neighbor, error) {
	return eval.NearestNeighbors(x, v, k)
}

// ProcrustesDistance compares two embeddings of the same vertex set up to
// orthogonal rotation (SVD embeddings are only defined modulo one):
// 0 = identical, values near sqrt(2) = unrelated.
func ProcrustesDistance(a, b *Matrix) (float64, error) {
	return eval.ProcrustesDistance(a, b)
}

// ExactRanking ranks each held-out edge against every vertex (filtered),
// giving exact MR/MRR/HITS@K at O(n·d) per edge — feasible for small
// graphs and useful for validating the sampled Ranking.
func ExactRanking(x *Matrix, test []Edge, ks []int) RankingResult {
	return eval.ExactRanking(x, test, ks, nil)
}
