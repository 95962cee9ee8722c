package experiment

import "testing"

// TestOptionsDigest pins the cache key's input side: the digest is
// deterministic, and changing any field that determines a job's result —
// including the seed and the base system — changes it.
func TestOptionsDigest(t *testing.T) {
	a := parallelOptions()
	if a.Digest() != a.Digest() {
		t.Fatal("digest is not deterministic")
	}
	seen := map[string]string{a.Digest(): "base"}
	mutate := map[string]func(*Options){
		"scale":     func(o *Options) { o.Scale *= 2 },
		"seed":      func(o *Options) { o.Seed++ },
		"benchmark": func(o *Options) { o.Benchmarks = []string{"FMM"} },
		"sizes":     func(o *Options) { o.CacheSizesMB = []int{2} },
		"technique": func(o *Options) { o.Techniques = o.Techniques[:1] },
		"shard":     func(o *Options) { o.ShardCount = 2; o.ShardIndex = 1 },
		"base":      func(o *Options) { o.Base.L2MSHREntries++ },
	}
	for name, f := range mutate {
		o := parallelOptions()
		f(&o)
		d := o.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("mutating %q digests identically to %q", name, prev)
		}
		seen[d] = name
	}
}
