package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The scanner is the streaming XML tokenizer behind Parse and the
// SubtreeScanner. It reproduces encoding/xml.Decoder.Token in its default
// configuration (Strict, no CharsetReader, no Entity map, no AutoClose)
// token for token: the same start, end and character-data tokens, the same
// InputOffset before and after each, and the same accept/reject decision at
// the same token. The oracle tests in this package hold it to that.
//
// It differs in cost, not in behaviour. The decoder reads a byte at a time
// through an io.ByteReader, allocates every name and boxes every token in
// an interface; the scanner reads into one reused window, returns plain
// ASCII text runs in place, and copies names and attribute values into a
// per-tag arena. Each code path below mirrors the decoder function named in
// its comment, byte for byte, so the rare constructs (entities, CDATA,
// comments, processing instructions, directives, CR, non-ASCII) stay exact
// without being fast.

// scanBufSize is the size of the read window. Tokens longer than the window
// are decoded into scratch space, so the window never grows.
const scanBufSize = 4096

// maxEmptyReads mirrors bufio: a reader that returns no data and no error
// this many times in a row fails with io.ErrNoProgress.
const maxEmptyReads = 100

type tokKind uint8

const (
	tokEOF   tokKind = iota // clean end of input, no element open
	tokStart                // s.tag holds the start tag
	tokEnd                  // the innermost open element closed
	tokText                 // s.data holds the decoded character data
	tokOther                // comment, processing instruction or directive
)

// startTag is a scanned start tag. Its byte slices point into the
// scanner's tag arena and stay valid until the next start tag.
type startTag struct {
	local []byte // the element's local name
	attrs []tagAttr
}

type tagAttr struct {
	local []byte // the attribute's local name
	value []byte // the decoded value
}

type scanner struct {
	r        io.Reader
	buf      []byte // read window; buf[pos:end] is unread
	pos, end int
	base     int64 // input offset of buf[0]
	lines    int   // newlines in windows already consumed
	err      error // sticky: io.EOF, a reader error or a syntax error
	rerr     error // read error held back until the window drains

	selfClose bool   // the last start tag was self-closing: its end is next
	open      []byte // qualified names of the open elements, concatenated
	openEnds  []int  // end of each open name within open

	tag     startTag
	arena   []byte // names and values of the current start tag
	data    []byte // the current character data (window or scratch)
	scratch []byte // decoding space for text the window cannot return in place
}

func (s *scanner) reset(r io.Reader) {
	if s.buf == nil {
		s.buf = make([]byte, scanBufSize)
	}
	s.r = r
	s.pos, s.end, s.base, s.lines = 0, 0, 0, 0
	s.err, s.rerr = nil, nil
	s.selfClose = false
	s.open, s.openEnds = s.open[:0], s.openEnds[:0]
	s.data = nil
}

// offset is the input byte offset of the scanner: the end of the last
// token returned, as encoding/xml.Decoder.InputOffset reports it.
func (s *scanner) offset() int64 { return s.base + int64(s.pos) }

// depth is the number of open elements.
func (s *scanner) depth() int { return len(s.openEnds) }

var errBadRead = errors.New("xmltree: reader returned an invalid count")

// more refills the exhausted window. It reports false, with s.err set, at
// the end of input or on a read error. Like bufio, it hands out the data a
// failing Read returned before the error.
func (s *scanner) more() bool {
	if s.err != nil {
		return false
	}
	s.lines += bytes.Count(s.buf[:s.end], newline)
	s.base += int64(s.end)
	s.pos, s.end = 0, 0
	for empty := 0; ; empty++ {
		if s.rerr != nil {
			s.err = s.rerr
			return false
		}
		if empty == maxEmptyReads {
			s.err = io.ErrNoProgress
			return false
		}
		n, err := s.r.Read(s.buf)
		if n < 0 || n > len(s.buf) {
			s.err = errBadRead
			return false
		}
		s.end, s.rerr = n, err
		if n > 0 {
			return true
		}
	}
}

var newline = []byte{'\n'}

// getc mirrors Decoder.getc: the next byte, or false with s.err set.
func (s *scanner) getc() (byte, bool) {
	if s.pos == s.end && !s.more() {
		return 0, false
	}
	b := s.buf[s.pos]
	s.pos++
	return b, true
}

// ungetc pushes back the byte getc just returned.
func (s *scanner) ungetc() { s.pos-- }

// mustgetc mirrors Decoder.mustgetc: end of input is a syntax error.
func (s *scanner) mustgetc() (byte, bool) {
	b, ok := s.getc()
	if !ok && s.err == io.EOF {
		s.err = s.syntaxError("unexpected EOF")
	}
	return b, ok
}

// syntaxError builds the decoder's error type, with the line the scanner
// has reached.
func (s *scanner) syntaxError(msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: 1 + s.lines + bytes.Count(s.buf[:s.pos], newline)}
}

// fail records a syntax error and returns it.
func (s *scanner) fail(msg string) (tokKind, error) {
	s.err = s.syntaxError(msg)
	return 0, s.err
}

// next returns the next token, mirroring Decoder.Token (and rawToken).
func (s *scanner) next() (tokKind, error) {
	if s.selfClose {
		s.selfClose = false
		s.pop()
		return tokEnd, nil
	}
	if s.err != nil && s.err != io.EOF {
		return 0, s.err
	}
	b, ok := s.getc()
	if !ok {
		if s.err != io.EOF {
			return 0, s.err
		}
		if s.depth() > 0 {
			return 0, s.syntaxError("unexpected EOF")
		}
		return tokEOF, nil
	}
	if b != '<' {
		s.ungetc()
		data, ok := s.text(-1, false)
		if !ok {
			return 0, s.err
		}
		s.data = data
		return tokText, nil
	}
	if b, ok = s.mustgetc(); !ok {
		return 0, s.err
	}
	switch b {
	case '/':
		return s.endTag()
	case '?':
		return s.procInst()
	case '!':
		return s.bang()
	}
	s.ungetc()
	return s.startTag()
}

// startTag scans an open element like <a href="foo"> (rawToken's last
// case), copying its names and decoded values into the tag arena.
func (s *scanner) startTag() (tokKind, error) {
	s.arena = s.arena[:0]
	s.tag.attrs = s.tag.attrs[:0]
	name, local, ok := s.nsname()
	if !ok {
		if s.err == nil {
			return s.fail("expected element name after <")
		}
		return 0, s.err
	}
	s.tag.local = local
	for {
		s.space()
		b, ok := s.mustgetc()
		if !ok {
			return 0, s.err
		}
		if b == '/' {
			if b, ok = s.mustgetc(); !ok {
				return 0, s.err
			}
			if b != '>' {
				return s.fail("expected /> in element")
			}
			s.selfClose = true
			break
		}
		if b == '>' {
			break
		}
		s.ungetc()
		_, alocal, ok := s.nsname()
		if !ok {
			if s.err == nil {
				return s.fail("expected attribute name in element")
			}
			return 0, s.err
		}
		s.space()
		if b, ok = s.mustgetc(); !ok {
			return 0, s.err
		}
		if b != '=' {
			return s.fail("attribute name without = in element")
		}
		s.space()
		if b, ok = s.mustgetc(); !ok {
			return 0, s.err
		}
		if b != '"' && b != '\'' {
			return s.fail("unquoted or missing attribute value in element")
		}
		value, ok := s.text(int(b), false)
		if !ok {
			return 0, s.err
		}
		start := len(s.arena)
		s.arena = append(s.arena, value...)
		s.tag.attrs = append(s.tag.attrs, tagAttr{local: alocal, value: s.arena[start:]})
	}
	s.open = append(s.open, name...)
	s.openEnds = append(s.openEnds, len(s.open))
	return tokStart, nil
}

// endTag scans </name> and matches it against the innermost open element
// (rawToken's '/' case and Decoder.popElement). An end tag must repeat
// the start tag's qualified name: equal prefix and local name.
func (s *scanner) endTag() (tokKind, error) {
	s.arena = s.arena[:0]
	name, local, ok := s.nsname()
	if !ok {
		if s.err == nil {
			return s.fail("expected element name after </")
		}
		return 0, s.err
	}
	s.space()
	b, ok := s.mustgetc()
	if !ok {
		return 0, s.err
	}
	if b != '>' {
		return s.fail("invalid characters between </" + string(local) + " and >")
	}
	if s.depth() == 0 {
		return s.fail("unexpected end element </" + string(local) + ">")
	}
	if top := s.open[s.openStart():]; !bytes.Equal(top, name) {
		return s.fail("element <" + string(localName(top)) + "> closed by </" + string(local) + ">")
	}
	s.pop()
	return tokEnd, nil
}

func (s *scanner) openStart() int {
	if n := len(s.openEnds); n > 1 {
		return s.openEnds[n-2]
	}
	return 0
}

func (s *scanner) pop() {
	s.open = s.open[:s.openStart()]
	s.openEnds = s.openEnds[:len(s.openEnds)-1]
}

// procInst scans a processing instruction after <? (rawToken's '?'
// case). The XML declaration is checked: version 1.0 and a UTF-8
// encoding only, as without a CharsetReader.
func (s *scanner) procInst() (tokKind, error) {
	s.arena = s.arena[:0]
	var ok bool
	if s.arena, ok = s.name(s.arena); !ok {
		if s.err == nil {
			return s.fail("expected target name after <?")
		}
		return 0, s.err
	}
	decl := string(s.arena) == "xml"
	s.space()
	s.arena = s.arena[:0]
	var b0 byte
	for {
		b, ok := s.mustgetc()
		if !ok {
			return 0, s.err
		}
		if decl {
			s.arena = append(s.arena, b)
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if !decl {
		return tokOther, nil
	}
	content := string(s.arena[:len(s.arena)-2])
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		s.err = fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
		return 0, s.err
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		s.err = fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
		return 0, s.err
	}
	return tokOther, nil
}

// procInstParam mirrors encoding/xml's procInst: the param="..." or
// param='...' value in s, or "" when there is none.
func procInstParam(param, s string) string {
	param += "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang scans the markup after <!: a comment, a CDATA section or a
// directive (rawToken's '!' case).
func (s *scanner) bang() (tokKind, error) {
	b, ok := s.mustgetc()
	if !ok {
		return 0, s.err
	}
	switch b {
	case '-':
		if b, ok = s.mustgetc(); !ok {
			return 0, s.err
		}
		if b != '-' {
			return s.fail("invalid sequence <!- not part of <!--")
		}
		var b0, b1 byte
		for {
			if b, ok = s.mustgetc(); !ok {
				return 0, s.err
			}
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return s.fail(`invalid sequence "--" not allowed in comments`)
				}
				return tokOther, nil
			}
			b0, b1 = b1, b
		}
	case '[':
		for i := 0; i < 6; i++ {
			if b, ok = s.mustgetc(); !ok {
				return 0, s.err
			}
			if b != "CDATA["[i] {
				return s.fail("invalid <![ sequence")
			}
		}
		data, ok := s.text(-1, true)
		if !ok {
			return 0, s.err
		}
		s.data = data
		return tokText, nil
	}
	// A directive such as <!DOCTYPE ...>: skipped up to its closing '>',
	// honouring quotes, nested '<' and embedded comments. The byte after
	// <! is not inspected, as in the decoder.
	var inquote byte
	depth := 0
	for {
		if b, ok = s.mustgetc(); !ok {
			return 0, s.err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return tokOther, nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			const open = "!--"
			for i := 0; i < len(open); i++ {
				if b, ok = s.mustgetc(); !ok {
					return 0, s.err
				}
				if b != open[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, ok = s.mustgetc(); !ok {
					return 0, s.err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// space skips XML white space (Decoder.space).
func (s *scanner) space() {
	for {
		for s.pos < s.end {
			switch s.buf[s.pos] {
			case ' ', '\r', '\n', '\t':
				s.pos++
			default:
				return
			}
		}
		if !s.more() {
			return
		}
	}
}

// nsname reads a name with at most one colon (Decoder.nsname), appending
// it to the tag arena. It returns the qualified name and its local part:
// p:x keeps x, while a leading or trailing colon stays in the local name.
// A name with two or more colons fails with s.err unset, so the caller
// reports it.
func (s *scanner) nsname() (name, local []byte, ok bool) {
	start := len(s.arena)
	if s.arena, ok = s.name(s.arena); !ok {
		return nil, nil, false
	}
	name = s.arena[start:]
	if bytes.Count(name, colon) > 1 {
		return nil, nil, false
	}
	return name, localName(name), true
}

var colon = []byte{':'}

// localName is the part of a qualified name after its prefix.
func localName(name []byte) []byte {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return name
}

// name reads a name and checks it (Decoder.name), appending it to dst.
func (s *scanner) name(dst []byte) ([]byte, bool) {
	start := len(dst)
	dst, ok := s.readName(dst)
	if !ok {
		return dst, false
	}
	if !isName(dst[start:]) {
		s.err = s.syntaxError("invalid XML name: " + string(dst[start:]))
		return dst, false
	}
	return dst, true
}

// readName appends the bytes of a name to dst (Decoder.readName): a run
// delimited by any ASCII byte that cannot occur in a name. Non-ASCII bytes
// are accepted here and checked by isName.
func (s *scanner) readName(dst []byte) ([]byte, bool) {
	b, ok := s.mustgetc()
	if !ok {
		return dst, false
	}
	if !nameByte[b] {
		s.ungetc()
		return dst, false
	}
	dst = append(dst, b)
	for {
		i := s.pos
		for i < s.end && nameByte[s.buf[i]] {
			i++
		}
		dst = append(dst, s.buf[s.pos:i]...)
		s.pos = i
		if i < s.end {
			return dst, true
		}
		if !s.more() {
			if s.err == io.EOF {
				s.err = s.syntaxError("unexpected EOF")
			}
			return dst, false
		}
	}
}

// nameByte marks the bytes readName accepts: the ASCII name bytes
// A–Z a–z 0–9 _ : . - and every byte of a multi-byte sequence.
var nameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
	return t
}()

// isName reports whether b is an XML name. An ASCII name is valid when it
// starts with a letter, '_' or ':'; a name with non-ASCII bytes is checked
// rune by rune against the XML name tables, which only encoding/xml holds.
func isName(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return isNonASCIIName(b)
		}
	}
	c := b[0]
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

// isNonASCIIName asks encoding/xml whether b is a name by scanning the
// processing instruction <?b?>, whose target the decoder checks with its
// name tables and nothing else.
func isNonASCIIName(b []byte) bool {
	pi := make([]byte, 0, len(b)+4)
	pi = append(append(append(pi, "<?"...), b...), "?>"...)
	_, err := xml.NewDecoder(bytes.NewReader(pi)).RawToken()
	return err == nil
}

// textPlain marks the bytes character data can hold with no decoding or
// checking: printable ASCII and tab and newline, except the markup bytes
// '<' and '&' and ']' (which may start "]]>"). attrPlain also excludes the
// quotes, which end a quoted value.
var textPlain, attrPlain = func() (t, a [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['\t'], t['\n'] = true, true
	t['<'], t['&'], t[']'] = false, false, false
	a = t
	a['"'], a['\''] = false, false
	return t, a
}()

// text reads character data (Decoder.text): up to the next '<' or the end
// of input for text (quote < 0), up to the closing quote for an attribute
// value, or up to "]]>" for a CDATA section. The decoded bytes are valid
// until the next scanner call.
//
// A plain run that ends inside the window is returned in place; anything
// else is decoded into scratch by textSlow.
func (s *scanner) text(quote int, cdata bool) ([]byte, bool) {
	if !cdata {
		plain := &textPlain
		if quote >= 0 {
			plain = &attrPlain
		}
		i := s.pos
		for i < s.end && plain[s.buf[i]] {
			i++
		}
		if i < s.end {
			switch c := s.buf[i]; {
			case quote < 0 && c == '<':
				data := s.buf[s.pos:i]
				s.pos = i
				return data, true
			case quote >= 0 && int(c) == quote:
				data := s.buf[s.pos:i]
				s.pos = i + 1
				return data, true
			}
		}
	}
	return s.textSlow(quote, cdata)
}

// textSlow is Decoder.text byte for byte: entity references, CR and CRLF
// folding, the "]]>" rule, and the UTF-8 and Char-range check of the
// decoded bytes.
func (s *scanner) textSlow(quote int, cdata bool) ([]byte, bool) {
	var b0, b1 byte
	trunc := 0
	buf := s.scratch[:0]
	defer func() { s.scratch = buf[:0] }()
	for {
		b, ok := s.getc()
		if !ok {
			if cdata {
				if s.err == io.EOF {
					s.err = s.syntaxError("unexpected EOF in CDATA section")
				}
				return nil, false
			}
			break
		}
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				trunc = 2
				break
			}
			s.err = s.syntaxError("unescaped ]]> not in CDATA section")
			return nil, false
		}
		if b == '<' && !cdata {
			if quote >= 0 {
				s.err = s.syntaxError("unescaped < inside quoted string")
				return nil, false
			}
			s.ungetc()
			break
		}
		if quote >= 0 && int(b) == quote {
			break
		}
		if b == '&' && !cdata {
			if buf, ok = s.entity(buf); !ok {
				return nil, false
			}
			b0, b1 = 0, 0
			continue
		}
		switch {
		case b == '\r':
			buf = append(buf, '\n')
		case b1 == '\r' && b == '\n':
			// Already written as the '\n' of the '\r'.
		default:
			buf = append(buf, b)
		}
		b0, b1 = b1, b
	}
	data := buf[:len(buf)-trunc]
	if msg := checkChars(data); msg != "" {
		s.err = s.syntaxError(msg)
		return nil, false
	}
	return data, true
}

// entity decodes the reference after '&' and appends its text to buf:
// the five predefined entities and decimal or hexadecimal character
// references. Anything else is an invalid character entity.
func (s *scanner) entity(buf []byte) ([]byte, bool) {
	before := len(buf)
	buf = append(buf, '&')
	b, ok := s.mustgetc()
	if !ok {
		return buf, false
	}
	var r rune
	known := false
	if b == '#' {
		buf = append(buf, b)
		if b, ok = s.mustgetc(); !ok {
			return buf, false
		}
		base := 10
		if b == 'x' {
			base = 16
			buf = append(buf, b)
			if b, ok = s.mustgetc(); !ok {
				return buf, false
			}
		}
		start := len(buf)
		for '0' <= b && b <= '9' ||
			base == 16 && 'a' <= b && b <= 'f' ||
			base == 16 && 'A' <= b && b <= 'F' {
			buf = append(buf, b)
			if b, ok = s.mustgetc(); !ok {
				return buf, false
			}
		}
		if b != ';' {
			s.ungetc()
		} else {
			n, err := strconv.ParseUint(string(buf[start:]), base, 64)
			buf = append(buf, ';')
			if err == nil && n <= unicode.MaxRune {
				r, known = rune(n), true
			}
		}
	} else {
		s.ungetc()
		if buf, ok = s.readName(buf); !ok && s.err != nil {
			return buf, false
		}
		if b, ok = s.mustgetc(); !ok {
			return buf, false
		}
		if b != ';' {
			s.ungetc()
		} else {
			name := buf[before+1:]
			buf = append(buf, ';')
			if isName(name) {
				r, known = predefinedEntity(name)
			}
		}
	}
	if known {
		// Surrogates and other invalid code points encode as U+FFFD,
		// as string(rune(n)) does.
		return utf8.AppendRune(buf[:before], r), true
	}
	ent := string(buf[before:])
	if ent[len(ent)-1] != ';' {
		ent += " (no semicolon)"
	}
	s.err = s.syntaxError("invalid character entity " + ent)
	return buf, false
}

func predefinedEntity(name []byte) (rune, bool) {
	switch string(name) {
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "amp":
		return '&', true
	case "apos":
		return '\'', true
	case "quot":
		return '"', true
	}
	return 0, false
}

// checkChars returns the decoder's complaint about decoded character
// data, or "" when every rune is valid UTF-8 within the XML Char range.
func checkChars(data []byte) string {
	for len(data) > 0 {
		if c := data[0]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return fmt.Sprintf("illegal character code %U", rune(c))
			}
			data = data[1:]
			continue
		}
		r, size := utf8.DecodeRune(data)
		if r == utf8.RuneError && size == 1 {
			return "invalid UTF-8"
		}
		if !isInCharacterRange(r) {
			return fmt.Sprintf("illegal character code %U", r)
		}
		data = data[size:]
	}
	return ""
}

// isInCharacterRange is the Char production of the XML specification.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
