package main

import "testing"

// TestCheckFlags: the defaults pass; a negative -k or -walks, an -alpha
// outside (0, 1) and an unknown -selector are refused.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		k, walks int
		alpha    float64
		selector string
		ok       bool
	}{
		{100, 200000, 0.05, "contextrw", true},
		{0, 0, 0.5, "randomwalk", true},
		{-1, 200000, 0.05, "contextrw", false},
		{100, -1, 0.05, "contextrw", false},
		{100, 200000, 0, "contextrw", false},
		{100, 200000, 1, "contextrw", false},
		{100, 200000, -0.1, "simrank", false},
		{100, 200000, 0.05, "pagerank", false},
	}
	for _, c := range cases {
		if err := checkFlags(c.k, c.walks, c.alpha, c.selector); (err == nil) != c.ok {
			t.Errorf("checkFlags(-k %d -walks %d -alpha %v -selector %q) = %v, want ok = %t", c.k, c.walks, c.alpha, c.selector, err, c.ok)
		}
	}
}
