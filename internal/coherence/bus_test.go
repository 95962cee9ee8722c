package coherence

import (
	"strings"
	"testing"

	"cmpleak/internal/mem"
	"cmpleak/internal/sim"
)

// fakeSnooper answers snoops with a fixed response and records what it saw.
type fakeSnooper struct {
	id       int
	response SnoopResponse
	seen     []Transaction
}

func (f *fakeSnooper) ControllerID() int { return f.id }

func (f *fakeSnooper) Snoop(txn Transaction) SnoopResponse {
	f.seen = append(f.seen, txn)
	return f.response
}

func newBusUnderTest(busCfg BusConfig, memCfg mem.Config) (*sim.Engine, *mem.Memory, *Bus) {
	eng := sim.NewEngine()
	m := mem.New(eng, memCfg)
	b := NewBus(eng, m, busCfg)
	return eng, m, b
}

func TestBusReadFromMemory(t *testing.T) {
	eng, m, b := newBusUnderTest(
		BusConfig{ArbitrationCycles: 2, AddressCycles: 2, BytesPerCycle: 16, BlockBytes: 64},
		mem.Config{LatencyCycles: 100, BandwidthBytesPerCycle: 8, BlockSize: 64},
	)
	var res BusResult
	gotResult := false
	b.Issue(Transaction{Kind: BusRd, Block: 0x1000, Requester: 0}, func(_ any, _ Transaction, r BusResult) {
		res = r
		gotResult = true
	}, nil)
	eng.Run()
	if !gotResult {
		t.Fatal("completion callback never fired")
	}
	// 2 arb + 2 addr + 4 data + 108 memory = 116.
	if res.Latency != 116 {
		t.Fatalf("latency %d, want 116", res.Latency)
	}
	if !res.FromMemory {
		t.Fatal("clean read should come from memory")
	}
	if m.Reads.Value() != 1 {
		t.Fatal("memory read not issued")
	}
	if b.Transactions.Value() != 1 || b.DataTransfers.Value() != 1 {
		t.Fatal("bus accounting wrong")
	}
}

func TestBusSnoopSkipsRequester(t *testing.T) {
	eng, _, b := newBusUnderTest(DefaultBusConfig(), mem.DefaultConfig())
	self := &fakeSnooper{id: 0}
	other := &fakeSnooper{id: 1}
	b.Attach(self)
	b.Attach(other)
	b.Issue(Transaction{Kind: BusRd, Block: 0x40, Requester: 0}, nil, nil)
	eng.Run()
	if len(self.seen) != 0 {
		t.Fatal("requester snooped its own transaction")
	}
	if len(other.seen) != 1 {
		t.Fatalf("other controller saw %d transactions, want 1", len(other.seen))
	}
	if b.Snoopers() != 2 {
		t.Fatalf("Snoopers() = %d, want 2", b.Snoopers())
	}
}

func TestBusDirtySnoopUsesCacheToCache(t *testing.T) {
	eng, m, b := newBusUnderTest(
		BusConfig{ArbitrationCycles: 2, AddressCycles: 2, BytesPerCycle: 16, BlockBytes: 64, CacheToCacheExtra: 8},
		mem.Config{LatencyCycles: 100, BandwidthBytesPerCycle: 8, BlockSize: 64},
	)
	owner := &fakeSnooper{id: 1, response: SnoopResponse{Shared: true, Dirty: true}}
	b.Attach(owner)
	var res BusResult
	b.Issue(Transaction{Kind: BusRd, Block: 0x80, Requester: 0}, func(_ any, _ Transaction, r BusResult) { res = r }, nil)
	eng.Run()
	if res.FromMemory {
		t.Fatal("dirty snoop should not be served by memory read")
	}
	if !res.Snoop.Dirty || !res.Snoop.Shared {
		t.Fatalf("snoop response %+v", res.Snoop)
	}
	// 2 arb + 2 addr + 4 data + 8 c2c = 16, much less than the memory path.
	if res.Latency != 16 {
		t.Fatalf("latency %d, want 16", res.Latency)
	}
	if m.Reads.Value() != 0 {
		t.Fatal("memory should not be read on a flush")
	}
	if m.Writes.Value() != 1 {
		t.Fatal("MESI flush must also update memory")
	}
	if b.CacheToCache.Value() != 1 {
		t.Fatal("cache-to-cache transfer not counted")
	}
}

func TestBusUpgradeIsAddressOnly(t *testing.T) {
	eng, m, b := newBusUnderTest(
		BusConfig{ArbitrationCycles: 2, AddressCycles: 2, BytesPerCycle: 16, BlockBytes: 64},
		mem.DefaultConfig(),
	)
	var res BusResult
	b.Issue(Transaction{Kind: BusUpgr, Block: 0x100, Requester: 0}, func(_ any, _ Transaction, r BusResult) { res = r }, nil)
	eng.Run()
	if res.Latency != 4 {
		t.Fatalf("upgrade latency %d, want 4 (arb+addr)", res.Latency)
	}
	if m.TotalAccesses() != 0 {
		t.Fatal("upgrade should not touch memory")
	}
	if b.AddressOnly.Value() != 1 {
		t.Fatal("address-only transaction not counted")
	}
	if b.BytesTransfered.Value() != 0 {
		t.Fatal("upgrade should transfer no data bytes")
	}
}

func TestBusWriteBackGoesToMemory(t *testing.T) {
	eng, m, b := newBusUnderTest(DefaultBusConfig(), mem.DefaultConfig())
	b.Issue(Transaction{Kind: WriteBack, Block: 0x200, Requester: 2}, nil, nil)
	eng.Run()
	if m.Writes.Value() != 1 {
		t.Fatal("write-back did not reach memory")
	}
	if m.BytesWritten.Value() != 64 {
		t.Fatalf("write-back bytes %d, want 64", m.BytesWritten.Value())
	}
}

func TestBusSerializesTransactions(t *testing.T) {
	eng, _, b := newBusUnderTest(
		BusConfig{ArbitrationCycles: 2, AddressCycles: 2, BytesPerCycle: 16, BlockBytes: 64},
		mem.Config{LatencyCycles: 10, BandwidthBytesPerCycle: 64, BlockSize: 64},
	)
	lat1 := b.Issue(Transaction{Kind: BusUpgr, Block: 0x40, Requester: 0}, nil, nil)
	lat2 := b.Issue(Transaction{Kind: BusUpgr, Block: 0x80, Requester: 1}, nil, nil)
	eng.Run()
	if lat2 <= lat1 {
		t.Fatalf("second transaction (%d) should wait for the first (%d)", lat2, lat1)
	}
	if b.ArbStallCycles.Value() == 0 {
		t.Fatal("arbitration stall not recorded")
	}
}

func TestBusUtilization(t *testing.T) {
	eng, _, b := newBusUnderTest(DefaultBusConfig(), mem.DefaultConfig())
	b.Issue(Transaction{Kind: BusRd, Block: 0x40, Requester: 0}, nil, nil)
	eng.Run()
	u := b.Utilization(1000)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v out of range", u)
	}
}

// A zero block size or bandwidth is refused by Validate; Init stores the
// configuration it is given unchanged.
func TestBusConfigRefusesZero(t *testing.T) {
	if err := DefaultBusConfig().Validate(); err != nil {
		t.Fatalf("default bus config refused: %v", err)
	}
	for name, zero := range map[string]func(*BusConfig){
		"BlockBytes":    func(c *BusConfig) { c.BlockBytes = 0 },
		"BytesPerCycle": func(c *BusConfig) { c.BytesPerCycle = 0 },
	} {
		cfg := DefaultBusConfig()
		zero(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("zero %s: err = %v, want one naming %s", name, err, name)
		}
	}
	eng := sim.NewEngine()
	cfg := BusConfig{ArbitrationCycles: 1, AddressCycles: 1, BytesPerCycle: 4, BlockBytes: 32}
	if got := NewBus(eng, mem.New(eng, mem.DefaultConfig()), cfg).Config(); got != cfg {
		t.Fatalf("bus stored %+v, want %+v", got, cfg)
	}
}
