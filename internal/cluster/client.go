package cluster

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

// Client submits sweeps to a coordinator and waits for the merged
// figures. It implements campaign.FigureRunner, so `reproduce -cluster`
// swaps it in for the in-process drivers without touching the
// artifact-writing path — which is what makes distributed output
// byte-comparable to local output.
type Client struct {
	// Base is the coordinator's base URL (required).
	Base string
	// poll is the sweep poll period; 0 polls every clientPoll.
	poll time.Duration
}

// clientPoll is how often Wait polls a sweep.
const clientPoll = 100 * time.Millisecond

// Submit creates a sweep and returns its id.
func (c *Client) Submit(ctx context.Context, spec Spec) (string, error) {
	var created sweepCreated
	if err := postJSON(ctx, c.Base+"/cluster/sweep", spec, &created); err != nil {
		return "", err
	}
	return created.ID, nil
}

// Wait polls the sweep until it reaches a terminal state and returns
// the merged figures keyed by figure id. A failed sweep returns an
// error wrapping ErrSweepFailed.
func (c *Client) Wait(ctx context.Context, sweepID string) (map[string]*core.Figure, error) {
	for {
		var view sweepView
		if err := getJSON(ctx, c.Base+"/cluster/sweep/"+sweepID, &view); err != nil {
			return nil, err
		}
		switch view.State {
		case "done":
			figures := make(map[string]*core.Figure, len(view.Figures))
			for id, raw := range view.Figures {
				f, err := core.ReadFigureJSON(bytes.NewReader(raw))
				if err != nil {
					return nil, fmt.Errorf("cluster: decode merged figure %s: %w", id, err)
				}
				figures[id] = f
			}
			return figures, nil
		case "failed":
			return nil, fmt.Errorf("%w: sweep %s: %s", ErrSweepFailed, sweepID, view.Error)
		}
		if !jobs.Sleep(ctx, cmp.Or(c.poll, clientPoll)) {
			return nil, ctx.Err()
		}
	}
}

// RunSweep submits the spec and waits for the merged figures.
func (c *Client) RunSweep(ctx context.Context, spec Spec) (map[string]*core.Figure, error) {
	id, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, id)
}

// Figure runs one figure's sweep on the cluster and returns the merged
// figure. It satisfies campaign.FigureRunner. Options.Experiments does
// not travel: it is a local injection hook, and each worker installs
// its own cache-backed provider.
func (c *Client) Figure(ctx context.Context, id string, opts core.Options) (*core.Figure, error) {
	opts.Figure, opts.Figures = "", []string{id}
	figures, err := c.RunSweep(ctx, Spec(opts))
	if err != nil {
		return nil, err
	}
	f, ok := figures[id]
	if !ok {
		return nil, fmt.Errorf("cluster: sweep finished without figure %s", id)
	}
	return f, nil
}
