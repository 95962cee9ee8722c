package experiment

// Recorded report bytes.  The golden digests pin the results; these fixtures
// pin what the renderer makes of them — the headline blocks and every
// figure, as markdown and as CSV — so a formatting change to WriteReport,
// Table.Markdown/CSV or Headline.String fails here even when the CLI and the
// service still agree with each other.
//
// The fixtures were recorded from WriteReport over goldenOptions(); if a
// change is *meant* to alter the report, regenerate them with
//
//	CMPLEAK_UPDATE_GOLDEN=1 go test ./internal/experiment -run TestGoldenReport
//
// and say so in the commit message.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestGoldenReportBytes(t *testing.T) {
	sweep, err := runSweep(goldenOptions(), Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		csv  bool
	}{
		{"golden_report.md", false},
		{"golden_report.csv", true},
	} {
		var got bytes.Buffer
		if err := WriteReport(&got, sweep, "", tc.csv); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.file)
		if os.Getenv("CMPLEAK_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: rendered report differs from the recorded fixture\n--- got ---\n%s\n--- want ---\n%s",
				tc.file, got.Bytes(), want)
		}
	}
}
