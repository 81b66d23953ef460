package stats

import "testing"

func TestTimeBinner(t *testing.T) {
	if _, err := NewTimeBinner(0); err == nil {
		t.Error("zero width should error")
	}
	b, err := NewTimeBinner(10)
	if err != nil {
		t.Fatal(err)
	}
	b.Observe(0, 1)
	b.Observe(5, 2)
	b.Observe(10, 4)
	b.Observe(25, 8)
	b.Observe(-1, 100) // dropped
	if len(b.Sums) != 3 {
		t.Fatalf("bins = %d, want 3", len(b.Sums))
	}
	if b.Sums[0] != 3 || b.Sums[1] != 4 || b.Sums[2] != 8 {
		t.Errorf("sums = %v", b.Sums)
	}

	s := b.Series("demand")
	if len(s.Points) != 3 || s.Points[1].X != 10 || s.Points[1].Y != 4 {
		t.Errorf("series = %+v", s)
	}
	rs := b.RateSeries("rate")
	if rs.Points[2].Y != 0.8 {
		t.Errorf("rate = %v, want 0.8", rs.Points[2].Y)
	}
}
