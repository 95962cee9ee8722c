package workload

// Golden per-core stream digests: SHA-256 over every entry each generator
// emits for one core.  GoldenAnchor pins whole-sweep results, so a generator
// drift shows there only as a different sweep digest; these name the
// generator and the core whose entry sequence moved.
//
// If a change is *meant* to alter the generated streams, update the recorded
// digests with the values printed by:
//
//	go test ./internal/workload -run TestGoldenStreamDigests -v
//
// and say so in the commit message.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenStreamDigests maps a benchmark name to the digests of its four
// per-core streams at seed 1 and scale 0.05.  "synthetic" and
// "synthetic-streaming" are the SyntheticConfig kernel (NewSynthetic) with
// DefaultSyntheticConfig, the second with Streaming set.  The
// "stat:refs=256K,phase=512,states=5" spec runs a few dozen phase instances
// per core at this scale, so its digests cover the Markov transition draws.
var goldenStreamDigests = map[string][4]string{
	"mpeg2enc": {
		"de06b45330ae6133b8fef20e94ef105a655c7b43599bd0d023b6eec5e01d59d5",
		"37b55692bd74a4745d8c4e214e460b66451cac7696d1034c1be129c4411ac54c",
		"27f8b62f041fd0a61cf69e86c781a0629b636e9b7734798ae4f8a46dda0b5be2",
		"912203af91f6a761baa085f975fd47279f68025e175cceafb63d1129dfc727b1",
	},
	"mpeg2dec": {
		"77aa2f481a83b91822292a7eb582cb154172dcd319745a0594d682a1b3be4968",
		"6df62d0fcb1fc734cd1ad05c57dc65142ba25cf142426570f00fe20eba776885",
		"936903ec0535bcb8dbb7582d6b3bc53e47e7aae172bf282dfddf413eb4e0f42d",
		"4893c52db549ad1c0b8894f9f1682442dc8624ebff1b7472357b904f5bb9ebcb",
	},
	"facerec": {
		"76f951d220e085e6f96ed20c9bc67ad770cb1e24e92fd59bec42ece96cbd0f81",
		"a95c483407512a69e1fa7cf06be0824aad7da18fa713e241137e94cb9c126fe9",
		"4149a171630a7e16c53d5671ffbf2665e53e88be12c0b5b235479c067e70a722",
		"8510ac1681b09ad72f429a23b19c7552e7ad95f5f77ca15560ba48f163c26b36",
	},
	"WATER-NS": {
		"a938925e1528e0fa17af2003649bcc791ba2ba6ab42673198d1fd698722b8f30",
		"ea606fa6dd1b6bb3b1fdf8d23caa7d5c9adfeab80feb47c2864fc4df116b01d9",
		"db8c13f2dcdcf2c8df67a4ff4b6a5f85824b415ddd525db189edee39b7e4bf51",
		"ef54ae9e3b77c12eaab88389976261597f508a9259f6b132cea85c9aa7f340fa",
	},
	"FMM": {
		"d2e72b28dd452eb1d33cb0e83ab1e5de1db536bbb636300154b979ccace1899a",
		"080ab76cb00cd4c382b85fd48dc7be0f520e1a285d4def48298c21e5ff8a2ae5",
		"e7f849a11c540ced25338e70f03a87bee7b7bb91d3146c94187c13d1fbdf1c46",
		"17ce22b3eac71f583259e946e8661ae4eadc25892439f493f469f9c07b07600f",
	},
	"VOLREND": {
		"dbe4767f0171c4c0bf1c76e8abc1e22863b1a2cb8455d2bb586af5086487ea39",
		"da8f708aaaf46811abcc709079bce8426dcece12e2bac5b2fb2f16d170bc03ef",
		"f1f7d1e5f6461f91d662c166262933412a5209ecd51d7347ac54670fc5432225",
		"9dbac33530fc3f03fcafd80053e40583c8a5c92cf5e3ae08a1b42e81c1ccd670",
	},
	"stat:refs=4K,states=4,loc=0.8": {
		"4f0776598a0b688a239267bf2e0676c9338468426723dbacdcd426350b46a7f9",
		"c331b97414acd66b25c14bb6a01b837cb9bdf284106038335f6500189f6b8147",
		"ecf0eb7ff5b6925c146fa0f099afb781af3835494cf5593cc910585010a0b23f",
		"ae16fab11a828892bb1230fc6c9491dc2c009a67355580e93bb6043e6be3962a",
	},
	"synthetic": {
		"3f939c3ff19cff576dae24927519145a4cf39dca54c5265410b4269c73f408d4",
		"1697fea9814be8624c637b3f24eed85cae547c99128b16c5bfecc0c2fdcbb264",
		"b82a48260e883e12edeffc48fa34539d31c871c2648d4e80da0643d9d2464a0c",
		"5a4211b0c26ee8e4facb5a0ad76132dbba9bc23b622f1b7426b31d97bb281e17",
	},
	"synthetic-streaming": {
		"e8cd6168e8beefe6cb59b8b1f7bf3c772d3cfd29531b474c06f3a7ed25371942",
		"b167f286fe490beda308aa8a71edc463119d65cd229297e3623278836d2d02c3",
		"0842cc127c3b37d509516cbfaa9d16091c49a7a08d65272077f2c2fb6e0e2d8d",
		"8bb40c1bf1013475f62ec8d24615ad9697afe20bfd8aa4febc1fedae9c540f6e",
	},
	"stat:refs=256K,phase=512,states=5": {
		"948c0856cb1474281467d837a3df701d297f33d9ad7ae243de3bebd99c0e3495",
		"aa9dfb1a4d8b4c47d905d7cce3acbe8ebd05e43f2ea2da0a8c3880c5618d323d",
		"baf607fc4032a2021f3a381b4d2a4778b2fa1d3896367ce953492a79e8c0958c",
		"fdcc6be7fd193b906dd78111d3d163def7653e34f87af9a7725b25c9ab9985bd",
	},
	"mix:duo=FMM|VOLREND": {
		"38ece7046a995d03a7731611929eba2179a3c1358efdbf76a45d493516065c18",
		"ebb2cb106767dfffa58f04912dc2d84459e9a087c49588db7a68c4293e3aa9c8",
		"fb920ea1e932bca8ddff3c93dd503f7283bf3535b547b72ad8d6815862af193e",
		"dd831f661881aba6b712c714540e677c0e66b2df72da1da26bf84ed27eeb0d10",
	},
}

// streamDigest hashes a stream's entries (ComputeInstrs, Op, Addr, fixed
// width, little-endian) in order.
func streamDigest(s Stream) string {
	h := sha256.New()
	buf := make([]Entry, 256)
	var rec [17]byte
	for n := s.NextBatch(buf); n > 0; n = s.NextBatch(buf) {
		for _, e := range buf[:n] {
			binary.LittleEndian.PutUint64(rec[0:], uint64(e.ComputeInstrs))
			rec[8] = byte(e.Op)
			binary.LittleEndian.PutUint64(rec[9:], uint64(e.Addr))
			h.Write(rec[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenGenerator builds the named generator of goldenStreamDigests at
// scale 0.05.
func goldenGenerator(name string) (Generator, error) {
	const scale = 0.05
	switch name {
	case "synthetic":
		return NewSynthetic(DefaultSyntheticConfig(), scale)
	case "synthetic-streaming":
		cfg := DefaultSyntheticConfig()
		cfg.Streaming = true
		return NewSynthetic(cfg, scale)
	}
	return ByName(name, scale)
}

func TestGoldenStreamDigests(t *testing.T) {
	names := append(PaperBenchmarks(), "synthetic", "synthetic-streaming",
		"stat:refs=4K,states=4,loc=0.8", "stat:refs=256K,phase=512,states=5", "mix:duo=FMM|VOLREND")
	for _, name := range names {
		g, err := goldenGenerator(name)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenStreamDigests[name]
		for c, s := range g.Streams(4, 1) {
			got := streamDigest(s)
			t.Logf("%s core %d: %s", name, c, got)
			if got != want[c] {
				t.Errorf("%s core %d stream digest changed:\n  got:  %s\n  want: %s\n"+
					"The generated entry sequence is no longer identical to the recorded one. "+
					"If the change is intentional, update goldenStreamDigests.", name, c, got, want[c])
			}
		}
	}
}
