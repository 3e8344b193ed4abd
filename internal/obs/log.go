package obs

import (
	"context"
	"io"
	"log/slog"
)

// discardHandler drops every record (slog.DiscardHandler exists only in
// newer Go releases; this keeps the module's floor).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// nopLogger is what Logger returns when the context carries none: every
// level is disabled, so callers can log unconditionally and pay only an
// Enabled check when logging is off.
var nopLogger = slog.New(discardHandler{})

// Logger returns the structured logger carried by ctx, or a logger that
// discards everything. Never nil.
func Logger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok {
		return l
	}
	return nopLogger
}

// NewLogger builds the CLI diagnostic logger: verbosity 0 logs warnings
// and errors, 1 (-v) adds info, 2 (-vv) adds debug; format is "text" or
// "json" (-log-format).
func NewLogger(w io.Writer, verbosity int, format string) *slog.Logger {
	level := slog.LevelWarn
	switch {
	case verbosity >= 2:
		level = slog.LevelDebug
	case verbosity == 1:
		level = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}
