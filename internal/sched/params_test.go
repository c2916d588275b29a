package sched

import (
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"paper config", Params{N: 5, K: 3, Kr: 3, Ks: 2}, false},
		{"replication-like", Params{N: 3, K: 1, Kr: 1, Ks: 1}, false},
		{"no k", Params{N: 5, K: 0, Kr: 3, Ks: 2}, true},
		{"Ks > Kr", Params{N: 5, K: 3, Kr: 2, Ks: 3}, true},
		{"Kr > N", Params{N: 2, K: 3, Kr: 3, Ks: 2}, true},
		{"Ks zero", Params{N: 5, K: 3, Kr: 3, Ks: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate(%+v) = %v, wantErr %v", tt.p, err, tt.wantErr)
			}
		})
	}
}

func TestPaperConfiguration(t *testing.T) {
	// N=5, k=3, Kr=3, Ks=2 (paper §7.1): fair share 1, per-cloud max
	// 2, normal blocks 5, max 10 — the (10, 3) code of §6.1.
	p := Params{N: 5, K: 3, Kr: 3, Ks: 2}
	if got := p.FairShare(); got != 1 {
		t.Errorf("FairShare = %d, want 1", got)
	}
	if got := p.MaxPerCloud(); got != 2 {
		t.Errorf("MaxPerCloud = %d, want 2", got)
	}
	if got := p.NormalBlocks(); got != 5 {
		t.Errorf("NormalBlocks = %d, want 5", got)
	}
	if got := p.MaxBlocks(); got != 10 {
		t.Errorf("MaxBlocks = %d, want 10", got)
	}
	if got := p.CodeN(); got != 10 {
		t.Errorf("CodeN = %d, want 10", got)
	}
}

func TestIntroCapacityExample(t *testing.T) {
	// Intro example: 3 vendors, tolerate one down (Kr=2). UniDrive
	// yields 2/3 useful capacity (200 of 300 GB) versus 1/2 for
	// replication.
	// The useful fraction is K over the fair-share block count.
	p := Params{N: 3, K: 2, Kr: 2, Ks: 1}
	if got := p.NormalBlocks(); got != 3 {
		t.Errorf("NormalBlocks = %d, want 3 (2 of 3 blocks useful)", got)
	}
}

func TestKsOneMeansNoSecurityCap(t *testing.T) {
	p := Params{N: 4, K: 6, Kr: 2, Ks: 1}
	if got := p.MaxPerCloud(); got != 6 {
		t.Errorf("MaxPerCloud with Ks=1 = %d, want K=6", got)
	}
}

func TestParamsInvariantsProperty(t *testing.T) {
	f := func(nRaw, kRaw, krRaw, ksRaw uint8) bool {
		n := 1 + int(nRaw)%8
		k := 1 + int(kRaw)%12
		kr := 1 + int(krRaw)%n
		ks := 1 + int(ksRaw)%kr
		p := Params{N: n, K: k, Kr: kr, Ks: ks}
		if err := p.Validate(); err != nil {
			return true // infeasible combination, correctly rejected
		}
		fair, maxPC := p.FairShare(), p.MaxPerCloud()
		// Reliability: any Kr clouds at fair share hold >= K blocks.
		if fair*kr < k {
			return false
		}
		// Security: Ks-1 clouds at the cap hold < K blocks.
		if ks > 1 && maxPC*(ks-1) >= k {
			return false
		}
		// Fair share must not itself violate the cap (paper: Ks <= Kr
		// guarantees feasibility).
		if fair > maxPC {
			return false
		}
		// Normal blocks within the over-provisioning ceiling.
		if p.NormalBlocks() > p.MaxPerCloud()*p.N {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
