package analytics

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// gaussianData draws n points per class from N(center_c, 1).
func gaussianData(classes []float64, nPerClass, d int, seed int64) (data []float64, labels []int64) {
	r := rand.New(rand.NewSource(seed))
	for c, center := range classes {
		for i := 0; i < nPerClass; i++ {
			for j := 0; j < d; j++ {
				data = append(data, center+r.NormFloat64())
			}
			labels = append(labels, int64(c))
		}
	}
	return data, labels
}

func TestTrainNBRecoversParameters(t *testing.T) {
	const nPer, d = 5000, 3
	data, labels := gaussianData([]float64{0, 10}, nPer, d, 1)
	m, err := TrainNB(context.Background(), data, 2*nPer, d, labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Labels) != 2 || m.Labels[0] != 0 || m.Labels[1] != 1 {
		t.Fatalf("labels = %v", m.Labels)
	}
	// Laplace prior: (5000+1)/(10000+2) ≈ 0.5.
	for c := range m.Priors {
		if math.Abs(m.Priors[c]-0.5) > 1e-3 {
			t.Errorf("prior[%d] = %v", c, m.Priors[c])
		}
	}
	for j := 0; j < d; j++ {
		if math.Abs(m.Means[0][j]-0) > 0.1 || math.Abs(m.Means[1][j]-10) > 0.1 {
			t.Errorf("means[%d] = %v / %v", j, m.Means[0][j], m.Means[1][j])
		}
		if math.Abs(m.Stds[0][j]-1) > 0.1 || math.Abs(m.Stds[1][j]-1) > 0.1 {
			t.Errorf("stds[%d] = %v / %v", j, m.Stds[0][j], m.Stds[1][j])
		}
	}
}

func TestNBPredictSeparable(t *testing.T) {
	const nPer, d = 1000, 2
	data, labels := gaussianData([]float64{0, 8}, nPer, d, 2)
	m, err := TrainNB(context.Background(), data, 2*nPer, d, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	test, want := gaussianData([]float64{0, 8}, 200, d, 3)
	wrong := 0
	for i := range want {
		if m.Predict(test[i*d:i*d+d]) != want[i] {
			wrong++
		}
	}
	// 8 sigma separation: error rate must be essentially zero.
	if wrong > 2 {
		t.Errorf("misclassified %d of 400", wrong)
	}
}

// TestNBSerialParallelIdentical: the morsels' partials merge in morsel
// order, so the model is bit-identical at any worker count.
func TestNBSerialParallelIdentical(t *testing.T) {
	const nPer, d = 3000, 4
	data, labels := gaussianData([]float64{-1, 1, 3}, nPer, d, 4)
	serial, err := TrainNB(context.Background(), data, 3*nPer, d, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TrainNB(context.Background(), data, 3*nPer, d, labels, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("models differ:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

func TestTrainNBCancelled(t *testing.T) {
	data, labels := gaussianData([]float64{0, 1}, 2000, 2, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := TrainNB(ctx, data, 4000, 2, labels, 2)
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("want context.Canceled and no model, got %v, %v", m, err)
	}
}

func TestNBConstantFeatureVarianceFloored(t *testing.T) {
	// A constant feature has zero variance; the model must floor it and
	// still produce finite predictions.
	data := []float64{1, 0, 1, 0.1, 1, 5, 1, 5.1}
	labels := []int64{0, 0, 1, 1}
	m, err := TrainNB(context.Background(), data, 4, 2, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := range m.Labels {
		if m.Stds[c][0] <= 0 {
			t.Errorf("floored stddev = %v", m.Stds[c][0])
		}
	}
	got := m.Predict([]float64{1, 0.05})
	if got != 0 {
		t.Errorf("prediction = %d, want 0", got)
	}
	if math.IsNaN(float64(got)) {
		t.Error("NaN prediction")
	}
}

func TestNBPriorsFollowClassImbalance(t *testing.T) {
	// 3 of label 0, 1 of label 7 (labels need not be contiguous).
	data := []float64{0, 0, 0, 9}
	labels := []int64{0, 0, 0, 7}
	m, err := TrainNB(context.Background(), data, 4, 1, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Labels[0] != 0 || m.Labels[1] != 7 {
		t.Fatalf("labels = %v", m.Labels)
	}
	// (3+1)/(4+2) and (1+1)/(4+2) per the paper's formula.
	if math.Abs(m.Priors[0]-4.0/6) > 1e-12 || math.Abs(m.Priors[1]-2.0/6) > 1e-12 {
		t.Errorf("priors = %v", m.Priors)
	}
}

func TestNBValidation(t *testing.T) {
	if _, err := TrainNB(context.Background(), []float64{1}, 1, 1, nil, 1); err == nil {
		t.Error("label length mismatch should fail")
	}
	if _, err := TrainNB(context.Background(), []float64{1, 2}, 1, 1, []int64{0}, 1); err == nil {
		t.Error("data length mismatch should fail")
	}
	if _, err := TrainNB(context.Background(), nil, 0, 1, nil, 1); err == nil {
		t.Error("empty training set should fail")
	}
}

func TestLogGaussianMatchesDensity(t *testing.T) {
	got := logGaussian(0, 0, 1)
	want := math.Log(1 / math.Sqrt(2*math.Pi))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("logGaussian(0,0,1) = %v, want %v", got, want)
	}
}
