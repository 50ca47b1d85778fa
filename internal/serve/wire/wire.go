// Package wire defines version 1 of the mpicollperfd HTTP/JSON wire
// schema: every request and response body the daemon and its clients
// exchange, plus a hand-rolled codec for the hot select path that
// parses and encodes without allocating.
//
// The schema is versioned as a whole: Version stamps every response,
// and requests may carry it for forward-compatibility checks. Adding a
// field is backward compatible (unknown fields are skipped); changing
// the meaning of an existing field requires bumping Version.
package wire

import (
	"errors"
	"strconv"
	"unicode/utf8"
)

// Version is the wire-schema version this package speaks. Every
// response body carries it as "version"; requests may include it and
// the daemon rejects versions it does not understand.
const Version = 1

// Machine-readable error codes carried in Error.Code. Clients switch on
// these instead of parsing messages.
const (
	// CodeBadRequest: the request body or parameters were malformed.
	CodeBadRequest = "bad_request"
	// CodeUnknownProfile: the named platform profile is not known to
	// the daemon.
	CodeUnknownProfile = "unknown_profile"
	// CodeNotCalibrated: the profile is known but has no calibrated
	// models for the requested collective yet.
	CodeNotCalibrated = "not_calibrated"
	// CodeNotFound: the requested resource (e.g. a job ID) does not
	// exist.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the endpoint exists but not for this HTTP
	// method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeUnsupportedVersion: the request declared a wire-schema
	// version the daemon does not speak.
	CodeUnsupportedVersion = "unsupported_version"
	// CodeInternal: the daemon failed; the message carries detail.
	CodeInternal = "internal"
)

// Error is the uniform error response body of every endpoint.
type Error struct {
	Version int    `json:"version"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// SelectRequest asks which algorithm wins for one (profile, collective,
// P, m) point. Op defaults to "bcast" when empty.
type SelectRequest struct {
	Version int    `json:"version,omitempty"`
	Profile string `json:"profile"`
	Op      string `json:"op,omitempty"`
	P       int    `json:"p"`
	M       int    `json:"m"`
}

// SelectResponse is the winning algorithm for a SelectRequest.
type SelectResponse struct {
	Version   int     `json:"version"`
	Profile   string  `json:"profile"`
	Op        string  `json:"op"`
	Algorithm string  `json:"algorithm"`
	SegSize   int     `json:"seg_size"`
	Predicted float64 `json:"predicted_seconds"`
}

// CalibrationRequest submits an asynchronous calibration sweep. Profile
// names a built-in platform (grisou, gros, grisou2); Nodes optionally
// shrinks it. Zero values of Procs/Sizes fall back to the paper's
// defaults; Fast swaps in quick low-repetition measurement settings.
// Ops lists extended collective families to calibrate after broadcast.
type CalibrationRequest struct {
	Version int      `json:"version,omitempty"`
	Profile string   `json:"profile"`
	Nodes   int      `json:"nodes,omitempty"`
	Procs   int      `json:"procs,omitempty"`
	Sizes   []int    `json:"sizes,omitempty"`
	Ops     []string `json:"ops,omitempty"`
	Fast    bool     `json:"fast,omitempty"`
}

// JobState is the lifecycle state of a calibration job.
type JobState string

// The calibration job lifecycle: queued → running → one of
// done/failed/cancelled.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job reports one calibration job: identity, state, sweep progress, and
// — once done — the content digest under which the calibration is
// stored and selectable. A job is one measurement sweep: points_done
// and points_total are that sweep's completed and total grid points,
// and points_total reads 0 until the first point completes.
type Job struct {
	Version int      `json:"version"`
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Profile string   `json:"profile"`
	Digest  string   `json:"digest,omitempty"`
	Done    int      `json:"points_done"`
	Total   int      `json:"points_total"`
	Error   string   `json:"error,omitempty"`
}

// JobList is the response of GET /v1/calibrations.
type JobList struct {
	Version int   `json:"version"`
	Jobs    []Job `json:"jobs"`
}

// Health is the /healthz response body.
type Health struct {
	Version int    `json:"version"`
	Status  string `json:"status"`
}

// SelectRequestView is a zero-copy view of a parsed SelectRequest: the
// string fields alias the request buffer passed to ParseSelectRequest
// and are only valid until that buffer is reused.
type SelectRequestView struct {
	Profile []byte
	Op      []byte
	P       int
	M       int
	Version int
}

// ErrMalformed reports a select request body the zero-allocation parser
// rejects: invalid JSON, a string containing escapes, or trailing data.
var ErrMalformed = errors.New("wire: malformed request body")

// ParseSelectRequest parses a v1 select request from b into v without
// allocating. Unknown fields are skipped (after validating them as
// JSON); string values must be escape-free, valid UTF-8 (profile and
// collective names always are). The view aliases b.
//
// Every body the parser accepts, encoding/json also accepts into a
// SelectRequest with the same field values, with one exception: field
// names match exactly here, while encoding/json also matches them
// case-insensitively, so {"P": 3} sets P there and is skipped as an
// unknown field here. Clients send the exact names.
func ParseSelectRequest(b []byte, v *SelectRequestView) error {
	*v = SelectRequestView{}
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return ErrMalformed
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		i++
	} else {
		for {
			key, j, err := scanString(b, i)
			if err != nil {
				return err
			}
			i = skipWS(b, j)
			if i >= len(b) || b[i] != ':' {
				return ErrMalformed
			}
			i = skipWS(b, i+1)
			switch string(key) {
			case "profile":
				v.Profile, i, err = scanString(b, i)
			case "op":
				v.Op, i, err = scanString(b, i)
			case "p":
				v.P, i, err = scanInt(b, i)
			case "m":
				v.M, i, err = scanInt(b, i)
			case "version":
				v.Version, i, err = scanInt(b, i)
			default:
				i, err = skipValue(b, i)
			}
			if err != nil {
				return err
			}
			i = skipWS(b, i)
			if i >= len(b) {
				return ErrMalformed
			}
			if b[i] == '}' {
				i++
				break
			}
			if b[i] != ',' {
				return ErrMalformed
			}
			i = skipWS(b, i+1)
		}
	}
	if skipWS(b, i) != len(b) {
		return ErrMalformed
	}
	return nil
}

// AppendSelectResponse appends the JSON encoding of r to dst and
// returns the extended slice. The output is byte-identical to
// encoding/json's, provided the string fields are escape-free (they
// are: the daemon only emits its own profile and algorithm names).
func AppendSelectResponse(dst []byte, r *SelectResponse) []byte {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, int64(r.Version), 10)
	dst = append(dst, `,"profile":"`...)
	dst = append(dst, r.Profile...)
	dst = append(dst, `","op":"`...)
	dst = append(dst, r.Op...)
	dst = append(dst, `","algorithm":"`...)
	dst = append(dst, r.Algorithm...)
	dst = append(dst, `","seg_size":`...)
	dst = strconv.AppendInt(dst, int64(r.SegSize), 10)
	dst = append(dst, `,"predicted_seconds":`...)
	dst = appendFloat(dst, r.Predicted)
	dst = append(dst, '}')
	return dst
}

// appendFloat mirrors encoding/json's float formatting: shortest
// round-trip representation, 'e' only for very large/small magnitudes.
func appendFloat(dst []byte, f float64) []byte {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	fmtByte := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmtByte = 'e'
	}
	dst = strconv.AppendFloat(dst, f, fmtByte, -1, 64)
	if fmtByte == 'e' {
		// encoding/json trims a leading zero in the exponent: 1e-07 → 1e-7.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanString scans a JSON string at b[i:], returning its inner bytes.
// Escapes are rejected — the select schema never needs them — and so is
// invalid UTF-8, which encoding/json would decode to U+FFFD, so the
// returned bytes are always exactly the decoded string.
func scanString(b []byte, i int) ([]byte, int, error) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, ErrMalformed
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		switch b[j] {
		case '"':
			if !utf8.Valid(b[start:j]) {
				return nil, j, ErrMalformed
			}
			return b[start:j], j + 1, nil
		case '\\':
			return nil, j, ErrMalformed
		default:
			if b[j] < 0x20 {
				return nil, j, ErrMalformed
			}
		}
	}
	return nil, len(b), ErrMalformed
}

// scanInt scans a JSON integer at b[i:]: an optional minus sign, then
// 0 or a digit string without leading zeros. Fractions and exponents are
// rejected — the select schema's numbers are all integers — and so are
// magnitudes beyond 18 digits.
func scanInt(b []byte, i int) (int, int, error) {
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	n := 0
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			if i-start >= 18 {
				return 0, i, ErrMalformed
			}
			n = n*10 + int(b[i]-'0')
			i++
		}
	}
	if i == start {
		return 0, i, ErrMalformed
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, i, ErrMalformed
	}
	if neg {
		n = -n
	}
	return n, i, nil
}

// maxSkipDepth bounds the nesting of a skipped value; deeper bodies are
// rejected rather than recursed into.
const maxSkipDepth = 32

// skipValue skips any JSON value at b[i:], including nested containers,
// validating it against the JSON grammar.
func skipValue(b []byte, i int) (int, error) { return skipNested(b, i, 0) }

func skipNested(b []byte, i, depth int) (int, error) {
	if i >= len(b) {
		return i, ErrMalformed
	}
	switch c := b[i]; {
	case c == '"':
		_, j, err := scanString(b, i)
		return j, err
	case c == '{' || c == '[':
		if depth == maxSkipDepth {
			return i, ErrMalformed
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		i = skipWS(b, i+1)
		if i < len(b) && b[i] == end {
			return i + 1, nil
		}
		for {
			var err error
			if c == '{' {
				if _, i, err = scanString(b, i); err != nil {
					return i, err
				}
				if i = skipWS(b, i); i >= len(b) || b[i] != ':' {
					return i, ErrMalformed
				}
				i = skipWS(b, i+1)
			}
			if i, err = skipNested(b, i, depth+1); err != nil {
				return i, err
			}
			if i = skipWS(b, i); i >= len(b) {
				return i, ErrMalformed
			}
			if b[i] == end {
				return i + 1, nil
			}
			if b[i] != ',' {
				return i, ErrMalformed
			}
			i = skipWS(b, i+1)
		}
	case c == 't':
		return expect(b, i, "true")
	case c == 'f':
		return expect(b, i, "false")
	case c == 'n':
		return expect(b, i, "null")
	case c == '-' || (c >= '0' && c <= '9'):
		return skipNumber(b, i)
	default:
		return i, ErrMalformed
	}
}

// skipNumber skips a JSON number at b[i:]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func skipNumber(b []byte, i int) (int, error) {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return i, ErrMalformed
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return j, ErrMalformed
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return j, ErrMalformed
		}
		i = j
	}
	return i, nil
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

func expect(b []byte, i int, lit string) (int, error) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return i, ErrMalformed
	}
	return i + len(lit), nil
}
