// Package s is a senterr fixture: sentinel errors must flow through
// errors.Is and %w, never identity or message matching.
package s

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Sentinels following the repo's naming convention.
var (
	ErrQueueFull = errors.New("queue full")
	errInternal  = errors.New("internal")
)

func eqCompare(err error) bool {
	return err == ErrQueueFull // want "sentinel ErrQueueFull compared with =="
}

func neqCompare(err error) bool {
	return err != errInternal // want "sentinel errInternal compared with !="
}

func nilCompareOK(err error) bool {
	return err == nil
}

func localCompareOK(err error) bool {
	errStop := errors.New("stop") // local, not a package-level sentinel
	return err == errStop
}

func switchSentinel(err error) string {
	switch err {
	case ErrQueueFull: // want "value switch compares by identity"
		return "full"
	case nil:
		return ""
	}
	return "other"
}

func textContains(err error) bool {
	return strings.Contains(err.Error(), "full") // want "matching err.Error"
}

func textCompare(err error) bool {
	return err.Error() == "queue full" // want "comparing err.Error"
}

func wrapWrongVerb(id string) error {
	return fmt.Errorf("submit %s: %v", id, ErrQueueFull) // want "wrap it with %w"
}

func wrapRightVerbOK(id string) error {
	return fmt.Errorf("submit %s: %w", id, ErrQueueFull)
}

func errorsIsOK(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, errInternal)
}

// context.Canceled and context.DeadlineExceeded are sentinels too.

func ctxIdentityCompare(err error) bool {
	if err == context.Canceled { // want "sentinel context.Canceled compared with =="
		return true
	}
	return err != context.DeadlineExceeded // want "sentinel context.DeadlineExceeded compared with !="
}

func ctxSwitchIdentity(err error) string {
	switch err {
	case context.Canceled: // want "sentinel context.Canceled in a value switch"
		return "canceled"
	case nil:
		return ""
	}
	return "other"
}

func ctxWrapWrongVerb(id string) error {
	return fmt.Errorf("job %s: %v", id, context.Canceled) // want "sentinel context.Canceled formatted with %v"
}

func ctxErrorsIsOK(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
