package geo

import "testing"

func TestNewBBoxNormalizesCorners(t *testing.T) {
	b := NewBBox(Pt(5, 1), Pt(2, 7))
	if b.Min != Pt(2, 1) || b.Max != Pt(5, 7) {
		t.Errorf("NewBBox = %v", b)
	}
}

func TestBBoxContains(t *testing.T) {
	b := NewBBox(Pt(0, 0), Pt(1, 1))
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(0.5, 0.5), true},
		{Pt(0, 0), true}, // boundary inclusive
		{Pt(1, 1), true}, // boundary inclusive
		{Pt(1.01, 0.5), false},
		{Pt(-0.01, 0.5), false},
	}
	for _, tc := range tests {
		if got := b.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestBBoxGeometry(t *testing.T) {
	b := NewBBox(Pt(1, 2), Pt(4, 6))
	if got := b.Width(); got != 3 {
		t.Errorf("Width = %v", got)
	}
	if got := b.Height(); got != 4 {
		t.Errorf("Height = %v", got)
	}
	if got := b.Diagonal(); !almostEq(got, 5) {
		t.Errorf("Diagonal = %v", got)
	}
}

func TestBBoxExpand(t *testing.T) {
	b := NewBBox(Pt(0, 0), Pt(1, 1)).Expand(0.5)
	if b.Min != Pt(-0.5, -0.5) || b.Max != Pt(1.5, 1.5) {
		t.Errorf("Expand = %v", b)
	}
}

func TestPaperRegions(t *testing.T) {
	if !UnitHalf.Contains(Pt(0.25, 0.25)) || UnitHalf.Contains(Pt(0.6, 0.1)) {
		t.Error("UnitHalf region wrong")
	}
	// Hong Kong bbox per the paper's extract.
	if !HongKong.Contains(Pt(114.0, 22.4)) {
		t.Error("HongKong should contain central HK")
	}
	if HongKong.Contains(Pt(113.0, 22.4)) {
		t.Error("HongKong should not contain far-west point")
	}
}
