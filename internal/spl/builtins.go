package spl

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"streams/internal/ops"
	"streams/internal/vm"
)

// builtin describes one builtin function: a type-checking rule and its
// typed implementations. Checking is ad-hoc per function (several
// builtins are generic over element types, which a signature table
// cannot express simply).
//
// Every implementation is written once, over unboxed vm.Val operands:
// the bytecode VM calls it directly (bridge_vm.go registers each under
// its signature-mangled name) and the closure evaluator reaches the
// same function through call, which unboxes the arguments and boxes the
// result — so the two evaluators cannot drift.
type builtin struct {
	check func(pos Pos, args []Type) (Type, error)
	// impls holds one body per accepted argument signature; most
	// builtins have exactly one.
	impls []impl
}

// impl is one typed body: the argument kinds it accepts (one letter
// each: i, f, s, b, or l for a list of strings), its result kind, and
// the function — fn, or lfn when a list is taken or returned and the
// body needs the arena the list lives in.
type impl struct {
	args string
	ret  vm.Kind
	fn   vm.BuiltinFunc
	lfn  vm.ListFunc
}

// mangled returns the name the implementation is registered under with
// the VM: "substring:sii", "tokenize:ssb>l".
func (im *impl) mangled(name string) string {
	if im.ret == vm.KList {
		return name + ":" + im.args + ">l"
	}
	return name + ":" + im.args
}

// find returns the implementation accepting the given argument kinds.
func (b *builtin) find(letters []byte) *impl {
	for i := range b.impls {
		if b.impls[i].args == string(letters) {
			return &b.impls[i]
		}
	}
	return nil
}

// call runs the builtin for the closure evaluator: box in, box out
// around the one typed body.
func (b *builtin) call(args []Value) Value {
	var a vm.Arena
	vals := make([]vm.Val, len(args))
	letters := make([]byte, len(args))
	for i, v := range args {
		vals[i], letters[i] = unbox(&a, v)
	}
	im := b.find(letters)
	if im == nil {
		panic(rtErrf(Pos{}, "no builtin implementation for arguments (%s)", letters))
	}
	var r vm.Val
	if im.lfn != nil {
		r = im.lfn(&a, vals)
	} else {
		r = im.fn(vals)
	}
	switch im.ret {
	case vm.KInt:
		return r.I
	case vm.KFloat:
		return r.F
	case vm.KStr:
		return r.S
	case vm.KBool:
		return r.I != 0
	default:
		strs := a.Strs(r)
		out := make([]Value, len(strs))
		for i, s := range strs {
			out[i] = s
		}
		return out
	}
}

// unbox converts a closure-evaluator value to a VM operand and its kind
// letter. Values the VM cannot represent — lists of anything but
// strings, tuples — unbox as their canonical text (element-wise for
// lists): the only builtins the checker lets them reach are size and
// toString, which observe nothing else.
func unbox(a *vm.Arena, v Value) (vm.Val, byte) {
	switch x := v.(type) {
	case int64:
		return vm.Val{I: x}, 'i'
	case float64:
		return vm.Val{F: x}, 'f'
	case string:
		return vm.Val{S: x}, 's'
	case bool:
		return vm.Val{I: b2iVal(x)}, 'b'
	case []Value:
		mark := a.Mark()
		for _, e := range x {
			a.Append(formatValue(e))
		}
		return a.List(mark), 'l'
	default:
		return vm.Val{S: formatValue(v)}, 's'
	}
}

func fixedSig(result Type, params ...Type) func(Pos, []Type) (Type, error) {
	return func(pos Pos, args []Type) (Type, error) {
		if len(args) != len(params) {
			return nil, errf(pos, "wrong argument count: got %d, want %d", len(args), len(params))
		}
		for i, p := range params {
			if !assignable(p, args[i]) {
				return nil, errf(pos, "argument %d has type %s, want %s", i+1, args[i], p)
			}
		}
		return result, nil
	}
}

var builtins = map[string]builtin{
	// tokenize(str, delimiters, keepEmpty) splits str at any character in
	// delimiters; keepEmpty retains empty tokens between adjacent
	// delimiters. Tokens are substrings of str.
	"tokenize": {
		check: fixedSig(ListType{Elem: RString}, RString, RString, Boolean),
		impls: []impl{{args: "ssb", ret: vm.KList, lfn: tokenize}},
	},
	// findFirst(str, needle, from) returns the byte index of needle at or
	// after from, or -1.
	"findFirst": {
		check: fixedSig(Int64, RString, RString, Int64),
		impls: []impl{{args: "ssi", ret: vm.KInt, fn: func(args []vm.Val) vm.Val {
			s, needle, from := args[0].S, args[1].S, args[2].I
			if from < 0 || from > int64(len(s)) {
				return vm.Val{I: -1}
			}
			i := strings.Index(s[from:], needle)
			if i < 0 {
				return vm.Val{I: -1}
			}
			return vm.Val{I: from + int64(i)}
		}}},
	},
	// size(list<T>) returns the element count.
	"size": {
		check: func(pos Pos, args []Type) (Type, error) {
			if len(args) != 1 {
				return nil, errf(pos, "size takes one argument")
			}
			if _, ok := args[0].(ListType); !ok {
				return nil, errf(pos, "size argument has type %s, want a list", args[0])
			}
			return Int64, nil
		},
		impls: []impl{{args: "l", ret: vm.KInt, lfn: func(a *vm.Arena, args []vm.Val) vm.Val {
			return vm.Val{I: int64(a.Len(args[0]))}
		}}},
	},
	// length(rstring) returns the byte length.
	"length": {
		check: fixedSig(Int64, RString),
		impls: []impl{{args: "s", ret: vm.KInt, fn: func(args []vm.Val) vm.Val {
			return vm.Val{I: int64(len(args[0].S))}
		}}},
	},
	// flatten(list<rstring>) joins tokens with single spaces (the paper's
	// Figure 1 uses it to reassemble a log message tail).
	"flatten": {
		check: fixedSig(RString, ListType{Elem: RString}),
		impls: []impl{{args: "l", ret: vm.KStr, lfn: func(a *vm.Arena, args []vm.Val) vm.Val {
			return vm.Val{S: strings.Join(a.Strs(args[0]), " ")}
		}}},
	},
	// substring(str, from, length).
	"substring": {
		check: fixedSig(RString, RString, Int64, Int64),
		impls: []impl{{args: "sii", ret: vm.KStr, fn: func(args []vm.Val) vm.Val {
			s, from, n := args[0].S, args[1].I, args[2].I
			if from < 0 || n < 0 || from > int64(len(s)) {
				panic(rtErrf(Pos{}, "substring(%q, %d, %d) out of range", s, from, n))
			}
			end := from + n
			if end > int64(len(s)) {
				end = int64(len(s))
			}
			return vm.Val{S: s[from:end]}
		}}},
	},
	"lower": {
		check: fixedSig(RString, RString),
		impls: []impl{{args: "s", ret: vm.KStr, fn: func(args []vm.Val) vm.Val {
			return vm.Val{S: strings.ToLower(args[0].S)}
		}}},
	},
	"upper": {
		check: fixedSig(RString, RString),
		impls: []impl{{args: "s", ret: vm.KStr, fn: func(args []vm.Val) vm.Val {
			return vm.Val{S: strings.ToUpper(args[0].S)}
		}}},
	},
	// toInt(rstring) parses a decimal integer (0 on failure, as SPL's
	// lenient casts behave).
	"toInt": {
		check: fixedSig(Int64, RString),
		impls: []impl{{args: "s", ret: vm.KInt, fn: func(args []vm.Val) vm.Val {
			v, _ := strconv.ParseInt(strings.TrimSpace(args[0].S), 10, 64)
			return vm.Val{I: v}
		}}},
	},
	// toFloat64(x) widens an integer to float64.
	"toFloat64": {
		check: func(pos Pos, args []Type) (Type, error) {
			if len(args) != 1 || (!isInt(args[0]) && !args[0].equal(Float64)) {
				return nil, errf(pos, "toFloat64 takes one numeric argument")
			}
			return Float64, nil
		},
		impls: []impl{
			{args: "i", ret: vm.KFloat, fn: func(args []vm.Val) vm.Val { return vm.Val{F: float64(args[0].I)} }},
			{args: "f", ret: vm.KFloat, fn: func(args []vm.Val) vm.Val { return vm.Val{F: args[0].F} }},
		},
	},
	// toString(x) formats any value as formatValue does.
	"toString": {
		check: func(pos Pos, args []Type) (Type, error) {
			if len(args) != 1 {
				return nil, errf(pos, "toString takes one argument")
			}
			return RString, nil
		},
		impls: []impl{
			{args: "i", ret: vm.KStr, fn: func(args []vm.Val) vm.Val { return vm.Val{S: strconv.FormatInt(args[0].I, 10)} }},
			{args: "f", ret: vm.KStr, fn: func(args []vm.Val) vm.Val { return vm.Val{S: string(appendFloat(nil, args[0].F))} }},
			{args: "s", ret: vm.KStr, fn: func(args []vm.Val) vm.Val { return vm.Val{S: args[0].S} }},
			{args: "b", ret: vm.KStr, fn: func(args []vm.Val) vm.Val { return vm.Val{S: strconv.FormatBool(args[0].I != 0)} }},
			{args: "l", ret: vm.KStr, lfn: func(a *vm.Arena, args []vm.Val) vm.Val {
				return vm.Val{S: "[" + strings.Join(a.Strs(args[0]), ",") + "]"}
			}},
		},
	},
	// makeDate / makeTime normalize date and time fragments; the paper's
	// example feeds them syslog fields.
	"makeDate": {
		check: fixedSig(RString, RString),
		impls: []impl{{args: "s", ret: vm.KStr, fn: func(args []vm.Val) vm.Val { return vm.Val{S: args[0].S} }}},
	},
	"makeTime": {
		check: fixedSig(RString, RString),
		impls: []impl{{args: "s", ret: vm.KStr, fn: func(args []vm.Val) vm.Val { return vm.Val{S: args[0].S} }}},
	},
	// makeTimestamp(date, time) combines the fragments.
	"makeTimestamp": {
		check: fixedSig(Timestamp, RString, RString),
		impls: []impl{{args: "ss", ret: vm.KStr, fn: func(args []vm.Val) vm.Val {
			return vm.Val{S: args[0].S + " " + args[1].S}
		}}},
	},
	// parseMsg(msg) extracts the uid, euid, tty, rhost and (when present)
	// user values from an sshd authentication-failure message, in that
	// order — the helper the paper's Figure 1 calls. A missing or empty
	// trailing key shortens the list, matching the example's
	// size(tokens) == 5 check for the optional user.
	"parseMsg": {
		check: fixedSig(ListType{Elem: RString}, RString),
		impls: []impl{{args: "s", ret: vm.KList, lfn: parseMsg}},
	},
	// spin(cost) performs cost floating-point operations and returns the
	// result — the synthetic work of the paper's evaluation, exposed to
	// SPL programs.
	"spin": {
		check: fixedSig(Float64, Int64),
		impls: []impl{{args: "i", ret: vm.KFloat, fn: func(args []vm.Val) vm.Val {
			return vm.Val{F: ops.Spin(int(args[0].I)/2, 1)}
		}}},
	},
}

func tokenize(a *vm.Arena, args []vm.Val) vm.Val {
	s, delims, keep := args[0].S, args[1].S, args[2].I != 0
	mark := a.Mark()
	start := 0
	if len(delims) == 1 && delims[0] < utf8.RuneSelf {
		// One ASCII delimiter — the log-splitting case — needs no rune
		// decoding: no byte of a multi-byte rune can equal it.
		for i := 0; i < len(s); i++ {
			if s[i] == delims[0] {
				if keep || i > start {
					a.Append(s[start:i])
				}
				start = i + 1
			}
		}
	} else {
		for i := 0; i < len(s); {
			r, w := utf8.DecodeRuneInString(s[i:])
			if strings.ContainsRune(delims, r) {
				if keep || i > start {
					a.Append(s[start:i])
				}
				start = i + w
			}
			i += w
		}
	}
	if keep || start < len(s) {
		a.Append(s[start:])
	}
	return a.List(mark)
}

var parseMsgKeys = [...]string{"uid", "euid", "tty", "rhost", "user"}

func parseMsg(a *vm.Arena, args []vm.Val) vm.Val {
	var vals [len(parseMsgKeys)]string
	var have [len(parseMsgKeys)]bool
	for tok, rest := nextField(args[0].S); tok != ""; tok, rest = nextField(rest) {
		if eq := strings.IndexByte(tok, '='); eq > 0 {
			for k, key := range parseMsgKeys {
				if tok[:eq] == key {
					vals[k], have[k] = tok[eq+1:], true
				}
			}
		}
	}
	mark := a.Mark()
	for k, key := range parseMsgKeys {
		if !have[k] || (vals[k] == "" && key == "user") {
			break
		}
		a.Append(vals[k])
	}
	return a.List(mark)
}

// nextField splits the first whitespace-delimited field off s — the
// fields strings.Fields would return, one at a time and without the
// slice. An empty field means s held none.
func nextField(s string) (field, rest string) {
	start := -1
	for i := 0; i < len(s); {
		c, w := s[i], 1
		if ' ' < c && c < utf8.RuneSelf { // a visible ASCII byte, the common case
			if start < 0 {
				start = i
			}
			i++
			continue
		}
		space := c == ' ' || ('\t' <= c && c <= '\r')
		if c >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			return s[start:i], s[i:]
		case !space && start < 0:
			start = i
		}
		i += w
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}
