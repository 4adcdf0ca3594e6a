package cli

import "testing"

// TestExitCodeValues pins the documented numeric values: scripts and CI
// branch on them, so any change here is a breaking interface change.
func TestExitCodeValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		code int
		want int
	}{
		{"ExitOK", ExitOK, 0},
		{"ExitRuntime", ExitRuntime, 1},
		{"ExitUsage", ExitUsage, 2},
		{"ExitSpec", ExitSpec, 3},
		{"ExitTimeout", ExitTimeout, 4},
	} {
		if tc.code != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.code, tc.want)
		}
	}
}
