// Package c is a ctxflow fixture: context discipline.
package c

import "context"

func ctxSecond(name string, ctx context.Context) error { // want "context.Context must be the first parameter"
	_ = name
	return ctx.Err()
}

func ctxFirstOK(ctx context.Context, name string) error {
	_ = name
	return ctx.Err()
}

func methodCtxFirstOK() {
	var w worker
	_ = w.do
}

type worker struct{}

func (w worker) do(ctx context.Context) error { return ctx.Err() }

func detaches(ctx context.Context) context.Context {
	return context.Background() // want "detaches this call chain"
}

func todoDetaches(ctx context.Context) context.Context {
	return context.TODO() // want "detaches this call chain"
}

func closureDetaches(ctx context.Context) {
	f := func() context.Context {
		return context.Background() // want "detaches this call chain"
	}
	_ = f()
}

func literalWithParam() {
	f := func(ctx context.Context) context.Context {
		return context.Background() // want "detaches this call chain"
	}
	_ = f(context.Background())
}

func freshRootOK() context.Context {
	// No ctx parameter in scope: building a detached lifetime on
	// purpose (main, job execution) is allowed.
	return context.Background()
}
