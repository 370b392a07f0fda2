package analytics

import (
	"math"
	"math/rand"
	"testing"
)

// twoBlobs generates n points split between two well-separated clusters.
func twoBlobs(n, d int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	data := make([]float64, n*d)
	for i := 0; i < n; i++ {
		base := 0.0
		if i >= n/2 {
			base = 10.0
		}
		for j := 0; j < d; j++ {
			data[i*d+j] = base + r.Float64()
		}
	}
	return data
}

// pointwise is a Metric factory from a distance between one row and one
// centre.
func pointwise(dist func(a, b []float64) float64) func(worker int, centers []float64) (Metric, error) {
	return func(_ int, centers []float64) (Metric, error) {
		return func(rows []float64, out [][]float64) error {
			d := len(centers) / len(out)
			for c := range out {
				for i := 0; i < len(rows)/d; i++ {
					out[c][i] = dist(rows[i*d:i*d+d], centers[c*d:c*d+d])
				}
			}
			return nil
		}, nil
	}
}

func TestKMeansConvergesOnSeparatedBlobs(t *testing.T) {
	const n, d, k = 1000, 3, 2
	data := twoBlobs(n, d, 1)
	centers := []float64{1, 1, 1, 9, 9, 9}
	res, err := KMeans(data, n, d, centers, k, KMeansOptions{MaxIter: 50, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("should converge on separated blobs")
	}
	// Centers near (0.5,...) and (10.5,...).
	for j := 0; j < d; j++ {
		if math.Abs(res.Centers[j]-0.5) > 0.1 {
			t.Errorf("center 0 dim %d = %v", j, res.Centers[j])
		}
		if math.Abs(res.Centers[d+j]-10.5) > 0.1 {
			t.Errorf("center 1 dim %d = %v", j, res.Centers[d+j])
		}
	}
}

func TestKMeansSerialParallelIdentical(t *testing.T) {
	const n, d, k = 2000, 4, 3
	data := twoBlobs(n, d, 2)
	centers := make([]float64, k*d)
	copy(centers, data[:k*d])
	serial, err := KMeans(data, n, d, centers, k, KMeansOptions{MaxIter: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := KMeans(data, n, d, centers, k, KMeansOptions{MaxIter: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Centers {
		if math.Abs(serial.Centers[i]-parallel.Centers[i]) > 1e-9 {
			t.Fatalf("center[%d]: serial %v != parallel %v", i, serial.Centers[i], parallel.Centers[i])
		}
	}
	if serial.Iterations != parallel.Iterations {
		t.Errorf("iterations: serial %d != parallel %d", serial.Iterations, parallel.Iterations)
	}
}

func TestKMeansCustomMetricMatchesDefault(t *testing.T) {
	// Squared Euclidean passed as a custom function must reproduce the
	// specialized default path exactly.
	const n, d, k = 500, 2, 2
	data := twoBlobs(n, d, 3)
	centers := []float64{0, 0, 10, 10}
	custom := func(a, b []float64) float64 {
		dx, dy := a[0]-b[0], a[1]-b[1]
		return dx*dx + dy*dy
	}
	def, err := KMeans(data, n, d, centers, k, KMeansOptions{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	cust, err := KMeans(data, n, d, centers, k, KMeansOptions{MaxIter: 10, Distance: pointwise(custom)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.Centers {
		if def.Centers[i] != cust.Centers[i] {
			t.Fatalf("center[%d]: default %v != custom %v", i, def.Centers[i], cust.Centers[i])
		}
	}
}

func TestKMeansManhattanDiffersButClusters(t *testing.T) {
	const n, d, k = 400, 2, 2
	data := twoBlobs(n, d, 4)
	centers := []float64{0, 0, 10, 10}
	l1 := func(a, b []float64) float64 {
		return math.Abs(a[0]-b[0]) + math.Abs(a[1]-b[1])
	}
	res, err := KMeans(data, n, d, centers, k, KMeansOptions{MaxIter: 20, Distance: pointwise(l1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centers[0] > 5 || res.Centers[2] < 5 {
		t.Errorf("L1 centers = %v", res.Centers)
	}
}

func TestKMeansMaxIterBound(t *testing.T) {
	const n, d, k = 100, 2, 2
	data := twoBlobs(n, d, 5)
	centers := []float64{5, 5, 5.1, 5.1} // poor initialization
	res, err := KMeans(data, n, d, centers, k, KMeansOptions{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

func TestKMeansEmptyClusterKeepsCenter(t *testing.T) {
	// A center far from all points gets no assignments and must stay put.
	data := []float64{0, 0, 1, 1}
	centers := []float64{0.5, 0.5, 100, 100}
	res, err := KMeans(data, 2, 2, centers, 2, KMeansOptions{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centers[2] != 100 || res.Centers[3] != 100 {
		t.Errorf("empty cluster center moved: %v", res.Centers[2:])
	}
}

func TestKMeansInputValidation(t *testing.T) {
	if _, err := KMeans([]float64{1}, 1, 1, []float64{1, 2}, 1, KMeansOptions{}); err == nil {
		t.Error("centers length mismatch should fail")
	}
	if _, err := KMeans([]float64{1, 2}, 1, 1, []float64{1}, 1, KMeansOptions{}); err == nil {
		t.Error("data length mismatch should fail")
	}
	if _, err := KMeans(nil, 0, 0, nil, 0, KMeansOptions{}); err == nil {
		t.Error("d=0,k=0 should fail")
	}
}

func TestKMeansDoesNotMutateInputs(t *testing.T) {
	data := twoBlobs(100, 2, 6)
	centers := []float64{0, 0, 10, 10}
	dataCopy := append([]float64{}, data...)
	centersCopy := append([]float64{}, centers...)
	if _, err := KMeans(data, 100, 2, centers, 2, KMeansOptions{MaxIter: 5}); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != dataCopy[i] {
			t.Fatal("data mutated")
		}
	}
	for i := range centers {
		if centers[i] != centersCopy[i] {
			t.Fatal("centers mutated")
		}
	}
}

func TestAssign(t *testing.T) {
	data := []float64{0, 0, 10, 10, 0.5, 0.5}
	centers := []float64{0, 0, 10, 10}
	got, err := Assign(data, 3, 2, centers, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Errorf("assignments = %v", got)
	}
}
