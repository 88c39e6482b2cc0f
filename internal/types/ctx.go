package types

import "context"

// CtxErr is ctx.Err() for a hot path: nil without taking the context's mutex
// while ctx is live (go1.24's cancelCtx.Err locks it on every call; Done is
// one atomic load once the channel exists), ctx.Err() once it is done.
func CtxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
