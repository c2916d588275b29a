package transfer

import (
	"context"
	"errors"

	"unidrive/internal/cloud"
	"unidrive/internal/meta"
)

// Survey is what the clouds' block directories held at one instant:
// the existence evidence every maintenance pass (scrub, crash
// recovery) judges the metadata against. A cloud is in one
// of three states: listed (its blocks are known exactly — a missing
// block directory is an empty cloud), unknown (its List failed, so its
// blocks are neither present nor absent and a caller must not act on
// them), or not in the engine at all.
type Survey struct {
	present map[BlockRef]bool
	listed  map[string]bool
	unknown []string
}

// Survey lists every cloud's block directory once, all clouds
// concurrently. Directory entries and names that are not block files
// are ignored; a failed List is counted under
// transfer.survey.clouds_failed. A cancelled ctx leaves the clouds it
// interrupted unknown — callers that must not report on a partial view
// check ctx.Err() afterwards.
func (e *Engine) Survey(ctx context.Context) *Survey {
	type listing struct {
		entries []cloud.Entry
		err     error
	}
	// Every listing is waited for, so each cloud ends up listed or
	// unknown, never empty for want of an answer.
	listings, _ := cloud.Each(ctx, len(e.names), func(ctx context.Context, i int) listing {
		entries, err := e.clouds[e.names[i]].List(ctx, DefaultBlockDir)
		return listing{entries, err}
	}).Wait(context.WithoutCancel(ctx))

	sv := &Survey{present: make(map[BlockRef]bool), listed: make(map[string]bool, len(e.names))}
	for i, name := range e.names {
		if err := listings[i].err; err != nil && !errors.Is(err, cloud.ErrNotFound) {
			e.cfg.Obs.Counter("transfer.survey.clouds_failed").Inc()
			sv.unknown = append(sv.unknown, name)
			continue
		}
		sv.listed[name] = true
		for _, en := range listings[i].entries {
			if en.IsDir {
				continue
			}
			if segID, blockID, ok := meta.ParseBlockName(en.Name); ok {
				sv.present[BlockRef{SegID: segID, BlockID: blockID, Cloud: name}] = true
			}
		}
	}
	return sv
}

// Has reports whether the block was listed on the cloud. False for a
// cloud that is unknown or not in the engine: ask Listed first when
// absence is to be acted on.
func (s *Survey) Has(cloudName, segID string, blockID int) bool {
	return s.present[BlockRef{SegID: segID, BlockID: blockID, Cloud: cloudName}]
}

// Listed reports whether the cloud is in the engine and its listing
// succeeded, so that Has is the whole truth about it.
func (s *Survey) Listed(cloudName string) bool { return s.listed[cloudName] }

// UnknownClouds returns the clouds whose listing failed, sorted.
func (s *Survey) UnknownClouds() []string { return s.unknown }

// Blocks returns every listed block whose segment want accepts, in no
// particular order.
func (s *Survey) Blocks(want func(segID string) bool) []BlockRef {
	var out []BlockRef
	for b := range s.present {
		if want(b.SegID) {
			out = append(out, b)
		}
	}
	return out
}

// Forget drops blocks from the survey: the caller has judged them
// (deleted or adopted them), and whoever asks next must not judge them
// again on evidence that no longer holds.
func (s *Survey) Forget(blocks []BlockRef) {
	for _, b := range blocks {
		delete(s.present, b)
	}
}
