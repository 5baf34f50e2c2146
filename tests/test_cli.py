"""Word grammar, emitters, and the command line surface."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import doubleshuffle
from doubleshuffle import (MINUS_ONE, ONE, GroupElement, IndexedWord, LinComb,
                           ShuffleWord)
from doubleshuffle import cli, values
from doubleshuffle.cli import main
from doubleshuffle.textio import (RelationWriter, WordSyntaxError,
                                  _word_fragment, format_lincomb,
                                  lincomb_from_json, lincomb_to_json,
                                  lincomb_to_latex, parse_indexed_word,
                                  parse_shuffle_word, relation_from_json,
                                  relation_to_json, word_from_json,
                                  word_to_json)
from doubleshuffle.values import (Relation, double_shuffle_relations,
                                  indexed_words, relation_stream)

from helpers import fraction_key, zw


def reference_line(rel: Relation, fmt: str, group: str) -> str:
    """A relation's line in ``fmt``, ordered by ``LinComb.items()``."""
    if fmt == "json":
        return json.dumps(relation_to_json(rel))
    if fmt == "latex":
        assert rel.is_zero_sum
        return f"{lincomb_to_latex(rel.combination, group)} = 0"
    return f"{rel.label}: {format_lincomb(rel.combination)}"


def writer_line(writer: RelationWriter, rel: Relation, fmt: str,
                group: str) -> str:
    if fmt == "json":
        return writer.relation(rel)
    if fmt == "latex":
        return writer.latex(rel, group)
    return writer.text(rel)


def source_env() -> dict:
    """The environment with this package's sources first on the path."""
    src = os.path.dirname(os.path.dirname(doubleshuffle.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def fresh_python(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this package's sources."""
    return subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, text=True, env=source_env(),
                          timeout=60)


def mismatch(got: str, want: str):
    """None when equal, else the first differing column with some context:
    pytest's own diff of two long lines can take minutes."""
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
             min(len(got), len(want)))
    return i, got[max(i - 40, 0):i + 40], want[max(i - 40, 0):i + 40]


class TestIndexedGrammar:
    def test_identity_marks_shorthand(self):
        assert parse_indexed_word("(2,1)") == zw(2, 1)

    def test_explicit_marks(self):
        assert parse_indexed_word("(2 | 1/2)") == IndexedWord(((2, MINUS_ONE),))

    def test_empty_word(self):
        assert parse_indexed_word("1") == IndexedWord()
        assert parse_indexed_word(" 1 ") == IndexedWord()

    def test_whitespace_insensitive(self):
        assert parse_indexed_word(" ( 2 , 1 | 1/2 , 0/1 ) ") == \
            IndexedWord(((2, MINUS_ONE), (1, ONE)))

    def test_round_trip_on_canonical_forms(self):
        for text in ("1", "(2)", "(2,1)", "(3,1,2)", "(2|1/2)",
                     "(2,1|1/2,0/1)", "(4,2|2/5,3/5)"):
            word = parse_indexed_word(text)
            assert str(word) == text
            assert parse_indexed_word(str(word)) == word

    def test_error_positions(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_indexed_word("(2,0)")
        assert err.value.pos == 3
        with pytest.raises(WordSyntaxError) as err:
            parse_indexed_word("(2,1")
        assert err.value.pos == 4
        with pytest.raises(WordSyntaxError) as err:
            parse_indexed_word("(2|1/0)")
        assert err.value.pos == 3
        with pytest.raises(WordSyntaxError) as err:
            parse_indexed_word("(2|1)")
        assert "fraction" in str(err.value)
        with pytest.raises(WordSyntaxError):
            parse_indexed_word("(2,1|1/2)")
        with pytest.raises(WordSyntaxError):
            parse_indexed_word("(2) junk")
        with pytest.raises(WordSyntaxError) as err:
            parse_indexed_word("(\u00b2)")  # a superscript two is no exponent
        assert err.value.pos == 1
        assert "expected an exponent" in str(err.value)
        with pytest.raises(WordSyntaxError) as err:
            parse_indexed_word("(" + "9" * 5000 + ")")  # past int()'s limit
        assert err.value.pos == 1


class TestShuffleGrammar:
    def test_tokens(self):
        got = parse_shuffle_word("0 [1/2] 1")
        assert got == ShuffleWord((None, MINUS_ONE, ONE))

    def test_dense_tokens(self):
        assert parse_shuffle_word("0101") == parse_shuffle_word("0 1 0 1")

    def test_empty(self):
        assert parse_shuffle_word("") == ShuffleWord()
        assert parse_shuffle_word("   ") == ShuffleWord()

    def test_round_trip(self):
        for text in ("", "0 1", "0 [1/2] 1", "[2/5] 0 [3/5]"):
            word = parse_shuffle_word(text)
            assert parse_shuffle_word(str(word)) == word

    def test_errors(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_shuffle_word("0 x 1")
        assert err.value.pos == 2
        with pytest.raises(WordSyntaxError):
            parse_shuffle_word("0 [1/2 1")
        with pytest.raises(WordSyntaxError):
            parse_shuffle_word("[1/]")
        with pytest.raises(WordSyntaxError) as err:
            parse_shuffle_word("[1/\u00b2]")
        assert err.value.pos == 3


class TestFormatting:
    def test_text(self):
        lc = LinComb([(zw(2, 2), 2), (zw(3, 1), 4)])
        assert format_lincomb(lc) == "2*(2,2) + 4*(3,1)"

    def test_text_negative_and_unit(self):
        lc = LinComb([(zw(3, 1), 4), (zw(4), -1)])
        assert format_lincomb(lc) == "4*(3,1) - 1*(4)"
        assert format_lincomb(LinComb()) == "0"
        assert format_lincomb(LinComb.single(IndexedWord(), 3)) == "3"

    def test_json_round_trip(self):
        lc = LinComb([(IndexedWord(((2, MINUS_ONE), (1, ONE))), 3),
                      (zw(4), -10 ** 30)])
        blob = lincomb_to_json(lc)
        assert blob["terms"][0]["coeff"] == "3"
        assert lincomb_from_json(json.loads(json.dumps(blob))) == lc

    def test_json_field_order(self):
        blob = lincomb_to_json(LinComb.single(zw(2), 5))
        assert list(blob["terms"][0].keys()) == ["coeff", "s", "m"]

    def test_relation_json_round_trip(self):
        rel = double_shuffle_relations(5, 2)[0]
        blob = json.loads(json.dumps(relation_to_json(rel)))
        back = relation_from_json(blob)
        assert back == rel

    @pytest.mark.parametrize("order", [3, 2])
    def test_writer_lines_equal_json_dumps(self, order):
        writer = RelationWriter()
        rels = list(relation_stream(6, 3, order, hoffman=True))
        assert any(r.kind == "hoffman" for r in rels)
        for rel in rels:
            assert writer.relation(rel) == json.dumps(relation_to_json(rel))

    def test_writer_big_coefficients_and_edge_words(self):
        third = GroupElement(1, 3)
        word = IndexedWord(((2, third), (1, MINUS_ONE)))
        lc = LinComb([(word, 2 ** 64 + 1), (zw(4), -(3 ** 50)),
                      (IndexedWord(), 7)])
        writer = RelationWriter()
        for rel in (Relation("product", (word, zw(2)), lc),
                    Relation("double-shuffle", (), lc),
                    Relation("euler", (zw(2), zw(2)), LinComb())):
            assert writer.relation(rel) == json.dumps(relation_to_json(rel))
            assert relation_from_json(json.loads(writer.relation(rel))) == rel

    def test_repeated_json_word_is_one_object(self):
        blob = '{"s": [2, 1], "m": ["1/3", "0/1"]}'
        word = word_from_json(json.loads(blob))
        assert word == IndexedWord(((2, GroupElement(1, 3)), (1, ONE)))
        assert word_from_json(json.loads(blob)) is word

    @pytest.mark.parametrize("cached, bad", [([1], [True]), ([2], [2.0])])
    def test_json_word_memo_keeps_exponent_types(self, cached, bad):
        """True == 1 and 2.0 == 2 hash alike, so they must be refused
        before the memo is looked up."""
        word_from_json({"s": cached, "m": ["0/1"]})
        with pytest.raises(WordSyntaxError, match="'s' must be a list"):
            word_from_json({"s": bad, "m": ["0/1"]})

    def test_word_fragment_equals_json_dumps(self):
        words = [IndexedWord()]
        for order in (1, 2, 3, 12):
            for weight in range(1, 6):
                for depth in range(1, min(weight, 3) + 1):
                    words += indexed_words(weight, depth, order)
        far = GroupElement(2 ** 33, 2 ** 33 + 1)
        words += [IndexedWord(p) for p in (
            ((2 ** 33, ONE),), ((2 ** 40 + 7, far),), ((3, far), (2 ** 33, ONE)),
            ((1, GroupElement(1, 2 ** 64)), (2, MINUS_ONE)))]
        for word in words:
            assert _word_fragment(word) == \
                json.dumps(word_to_json(word))[1:], word

    def test_writer_orders_mixed_weights_like_sort_key(self):
        words = [IndexedWord()]
        for order in (1, 2, 3, 4, 6):
            for weight in range(1, 7):
                for depth in range(1, min(weight, 4) + 1):
                    words += indexed_words(weight, depth, order)
        random.Random(0).shuffle(words)  # insertion order is no help
        lc = LinComb((w, i + 1) for i, w in enumerate(words))
        assert len(lc) > 25000
        rel = Relation("double-shuffle", (), lc)
        terms = sorted(lc.iterterms(), key=lambda kv: fraction_key(kv[0]))
        want = json.dumps({"kind": rel.kind, "factors": [], "terms": [
            {"coeff": str(c), **word_to_json(w)} for w, c in terms]})
        assert mismatch(RelationWriter().relation(rel), want) is None

    def test_writer_rebuilds_keys_as_marks_and_sizes_grow(self):
        """Marks of new denominators, big exponents and angles near a full
        turn arrive relation by relation; the lines, also of words met
        earlier, still follow ``LinComb.items()``."""
        writer = RelationWriter()
        root12 = [w for weight in range(1, 5) for depth in range(1, 4)
                  for w in indexed_words(weight, depth, 12)]
        far = GroupElement(1, 2 ** 33 + 1)
        big = [IndexedWord(p) for p in (
            ((2 ** 32 - 1, ONE),), ((2 ** 32, ONE),), ((2 ** 40, far),),
            ((3, far),), ((3, GroupElement(2 ** 33, 2 ** 33 + 1)),),
            ((2 ** 40, ONE), (1, far)), ((2 ** 40, ONE),))]
        batches = [
            [w for w in root12 if all(2 % b.den == 0 for b in w.marks)],
            [w for w in root12 if all(3 % b.den == 0 for b in w.marks)],
            root12,
            root12[::7] + big + [IndexedWord()],
        ]
        rels = [Relation("double-shuffle", (),
                         LinComb((w, i - 3) for i, w in enumerate(batch)))
                for batch in batches]
        for rel in rels + rels[:1]:
            for fmt in ("json", "text", "latex"):
                assert mismatch(writer_line(writer, rel, fmt, "root:12"),
                                reference_line(rel, fmt, "root:12")) is None

    def test_latex_zeta(self):
        lc = LinComb([(zw(2, 3), 1), (zw(3, 2), 3), (zw(4), -1)])
        assert lincomb_to_latex(lc) == \
            r"\zeta(2,3) + 3\zeta(3,2) - \zeta(4)"

    def test_latex_sign_and_roots(self):
        lc = LinComb.single(IndexedWord(((2, MINUS_ONE), (1, ONE))), 2)
        assert lincomb_to_latex(lc, "sign") == r"2\zeta(2,1;-1,1)"
        lc5 = LinComb.single(IndexedWord(((2, GroupElement(1, 5)),)), 1)
        assert lincomb_to_latex(lc5, "root:5") == \
            r"\operatorname{Li}_{2}(e^{2\pi i \cdot 1/5})"


class TestCommandLine:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_explicit_text(self, capsys):
        code, out, _ = self.run(capsys, "explicit", "(2)", "(2)")
        assert code == 0
        assert out == "2*(2,2) + 4*(3,1)\n"

    def test_three_paths_byte_identical(self, capsys):
        outputs = set()
        for argv in (("explicit", "(2)", "(2,1)", "--form", "b"),
                     ("perm-form", "(2)", "(2,1)"),
                     ("shuffle", "01", "011", "--as-indexed")):
            code, out, _ = self.run(capsys, *argv)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_relations_stream_before_the_last_product(self, monkeypatch):
        events = []
        product = values.explicit_product_e
        monkeypatch.setattr(values, "explicit_product_e",
                            lambda mu, nu: events.append("product")
                            or product(mu, nu))

        class Out:
            def write(self, text):
                events.append("write")
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Out())
        code = main(["relations", "--weight", "6", "--depth", "3",
                     "--group", "root:3", "--format", "json"])
        assert code == 0
        last_product = len(events) - 1 - events[::-1].index("product")
        assert events.index("write") < last_product

    def test_shuffle_plain(self, capsys):
        code, out, _ = self.run(capsys, "shuffle", "0 1", "1")
        assert code == 0
        assert out == "2*0 1 1 + 1*1 0 1\n"

    def test_stuffle(self, capsys):
        code, out, _ = self.run(capsys, "stuffle", "(2)", "(3)")
        assert code == 0
        assert out == "1*(2,3) + 1*(3,2) + 1*(5)\n"

    def test_explicit_json_round_trip(self, capsys):
        code, out, _ = self.run(capsys, "explicit", "(2|1/2)", "(2|1/2)",
                                "--format", "json")
        assert code == 0
        lc = lincomb_from_json(json.loads(out))
        assert lc == LinComb([(IndexedWord(((2, MINUS_ONE), (2, ONE))), 2),
                              (IndexedWord(((3, MINUS_ONE), (1, ONE))), 4)])

    def test_euler_latex(self, capsys):
        code, out, _ = self.run(capsys, "euler", "2", "3", "--format", "latex")
        assert code == 0
        assert out == "\\zeta(2)\\zeta(3) = " \
            "\\zeta(2,3) + 3\\zeta(3,2) + 6\\zeta(4,1)\n"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = self.run(capsys, "stuffle", "(2", "(3)")
        assert code == 2
        assert "column" in err

    @pytest.mark.parametrize("argv", [
        ("stuffle", "(" + ",".join(["2"] * 500) + ")", "(2)"),
        ("shuffle", "0 " * 499 + "1", "0 1"),
        ("stuffle", "(" + ",".join(["2"] * 500) + ")",
         "(" + ",".join(["2"] * 500) + ")"),
        ("stuffle", "(" + ",".join(["2"] * 10) + ")",
         "(" + ",".join(["2"] * 10) + ")"),
    ])
    def test_too_deep_a_recursion_is_one_error_line(self, capsys, argv):
        # A deep word is answered or refused in one error line.  A 500-deep
        # stuffle with (2) sums its 1,001-pattern table, built without
        # recursion: 501 terms, (2,...,2) 501 times and a 4 at each of 500
        # places.  Two 10-deep (2,...,2) have D(10, 10) = 8,097,453
        # patterns, so they recurse, and the memo's merged suffixes give
        # their 10,946 terms.  Two 500-deep words, and the shuffle here,
        # recurse too deep for the interpreter.
        digests = {
            (500, 1): "b2b87ea3191679f1564555e9e78341470f6efef3c1a25b35373bcba08b7ef635",
            (10, 10): "0bd1e067198e6d8224c9acc0450a24c0f910922add26cd5a5c8d5fc9a2b81e99",
        }
        code, out, err = self.run(capsys, *argv)
        assert "Traceback" not in err
        shape = tuple(word.count(",") + 1 for word in argv[1:])
        if argv[0] == "stuffle" and shape in digests:
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digests[shape]
            return
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_domain_error_exit_code(self, capsys):
        code, _, err = self.run(capsys, "euler", "1", "3")
        assert code == 2
        assert err

    def test_bad_group_exit_code(self, capsys):
        code, _, _ = self.run(capsys, "relations", "--weight", "4",
                              "--group", "bogus")
        assert code == 2

    @pytest.mark.parametrize("argv, group", [
        (("shuffle", "01", "1"), "bogus"),
        (("stuffle", "(2)", "(2)"), "root:x"),
        (("explicit", "(2)", "(2)", "--format", "latex"), "bogus"),
        (("perm-form", "(2)", "(2,1)"), "nope"),
        (("euler", "2", "3"), "root:x"),
        (("verify",), "nope"),
    ])
    def test_every_command_checks_the_group(self, capsys, tmp_path, argv,
                                            group):
        if argv[0] == "verify":
            stream = tmp_path / "one.jsonl"
            stream.write_text(json.dumps(relation_to_json(
                Relation("double-shuffle", (), LinComb.single(zw(2))))) + "\n")
            argv += ("--input", str(stream))
        code, out, err = self.run(capsys, *argv, "--group", group)
        assert (code, out) == (2, "")
        assert err == (f"error: unknown group {group!r} "
                       "(use trivial, sign or root:N)\n")

    def test_relations_verify_pipeline(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, "relations", "--weight", "4",
                                "--depth", "2", "--hoffman",
                                "--format", "json")
        assert code == 0
        stream = tmp_path / "relations.jsonl"
        stream.write_text(out)
        code, out, _ = self.run(capsys, "verify", "--terms", "100000",
                                "--tol", "1e-3", "--input", str(stream))
        assert code == 0
        assert "FAIL" not in out

    def test_verify_flags_failures(self, capsys, tmp_path):
        bogus = Relation("double-shuffle", (), LinComb.single(zw(2)))
        stream = tmp_path / "bad.jsonl"
        stream.write_text(json.dumps(relation_to_json(bogus)) + "\n")
        code, out, _ = self.run(capsys, "verify", "--terms", "1000",
                                "--input", str(stream))
        assert code == 1
        assert "FAIL" in out

    def test_verify_rejects_malformed_json(self, capsys, tmp_path):
        stream = tmp_path / "bad.jsonl"
        stream.write_text("{not json\n")
        code, _, err = self.run(capsys, "verify", "--input", str(stream))
        assert code == 2
        assert err

    @pytest.mark.parametrize("line", [
        '[1]',
        '"x"',
        '{"terms": 5}',
        '{"terms": [5]}',
        '{"kind": "euler", "factors": 5, '
        '"terms": [{"coeff": "1", "s": [2, 2], "m": ["0/1", "0/1"]}]}',
        '{"terms": [{"coeff": "1", "s": 5, "m": ["0/1"]}]}',
        '{"terms": [{"coeff": "1", "s": [2], "m": [7]}]}',
        '{"terms": [{"coeff": null, "s": [2], "m": ["0/1"]}]}',
        '{"terms": [{"coeff": 1.7, "s": [2], "m": ["0/1"]}]}',
        '{"terms": [{"coeff": "%s", "s": [2], "m": ["0/1"]}]}' % ("9" * 400),
        '{"terms": [{"coeff": "1_0", "s": [2], "m": ["0/1"]}]}',
        '{"terms": [{"coeff": "1", "s": [2], "m": ["1_0/3"]}]}',
        '{"terms": [{"coeff": "1", "s": [2], "m": ["+1/3"]}]}',
        '{"terms": [{"coeff": "1", "s": [2], "m": [" 1/3"]}]}',
        '{"terms": [{"coeff": "1", "s": [2], "m": ["\u0663/4"]}]}',
        pytest.param("[" * 1000, id="1000-nested-arrays"),
        pytest.param('{"terms": [{"coeff": "1", "s": [2], "m": [[1, 2]]}]}',
                     id="list-mark"),
    ])
    def test_verify_rejects_misshapen_records(self, capsys, tmp_path, line):
        stream = tmp_path / "bad.jsonl"
        stream.write_text(line + "\n")
        code, _, err = self.run(capsys, "verify", "--input", str(stream))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("mark", ['"1_0/3"', '"1/0"'])
    def test_a_refused_mark_is_refused_again(self, capsys, tmp_path, mark):
        """Marks are memoised by their string, and a refusal is not kept."""
        stream = tmp_path / "bad.jsonl"
        stream.write_text('{"terms": [{"coeff": "1", "s": [2], "m": [%s]}]}\n'
                          % mark)
        first = self.run(capsys, "verify", "--input", str(stream))
        second = self.run(capsys, "verify", "--input", str(stream))
        assert first == second
        assert first[0] == 2
        assert first[2].startswith("error: column 0: malformed fraction")
        assert first[2].count("\n") == 1

    @pytest.mark.parametrize("line, message", [
        ('{"terms": [{"s": [2], "m": ["0/1"]}]}', "term is missing key 'coeff'"),
        ('{"terms": [{"coeff": "1", "m": ["0/1"]}]}', "term is missing key 's'"),
        ('{"terms": [{"coeff": "1", "s": [2]}]}', "term is missing key 'm'"),
        ('{"kind": "euler", "factors": [{"m": ["0/1"]}], "terms": []}',
         "factor is missing key 's'"),
        ('{"kind": "euler", "factors": [{"s": [2]}], "terms": []}',
         "factor is missing key 'm'"),
        ('{"kind": "double-shuffle", "factors": []}',
         "record is missing key 'terms'"),
        ('{}', "record is missing key 'terms'"),
        ('{"terms": [{"coeff": "1", "s": [2], "m": ["0/1"]}, '
         '{"coeff": "2", "s": [3]}]}', "term is missing key 'm'"),
    ])
    def test_verify_names_a_missing_key(self, capsys, tmp_path, line, message):
        stream = tmp_path / "bad.jsonl"
        stream.write_text(line + "\n")
        code, out, err = self.run(capsys, "verify", "--input", str(stream))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("group", ["root:3x", "root:", "root:1/3",
                                       "root:3_0", "root:+3", "root: 3",
                                       "root:\u0663"])
    def test_malformed_root_group_is_an_unknown_group(self, capsys, group):
        code, out, err = self.run(capsys, "relations", "--weight", "4",
                                  "--group", group)
        assert code == 2
        assert out == ""
        assert err == (f"error: unknown group {group!r} "
                       "(use trivial, sign or root:N)\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "--tol", "-1"),
        ("verify", "--tol", "nan"),
        ("verify", "--tol", "inf"),
        ("relations", "--weight", "5", "--depth", "0", "--hoffman"),
        ("relations", "--weight", "-3"),
        ("relations", "--weight", "0"),
        ("verify", "--terms", "0"),
        ("verify", "--terms", "-5"),
    ])
    def test_rejects_out_of_domain_arguments(self, capsys, tmp_path, argv):
        stream = tmp_path / "one.jsonl"
        stream.write_text(json.dumps(relation_to_json(
            Relation("double-shuffle", (), LinComb.single(zw(2))))) + "\n")
        if argv[0] == "verify":
            argv += ("--input", str(stream))
        code, out, err = self.run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_verify_rejects_terms_on_empty_input(self, capsys, tmp_path):
        stream = tmp_path / "empty.jsonl"
        stream.write_text("")
        code, out, err = self.run(capsys, "verify", "--terms", "0",
                                  "--input", str(stream))
        assert (code, out) == (2, "")
        assert err == "error: --terms must be >= 1\n"

    def test_verify_skip_names_first_refused_word(self, capsys, tmp_path):
        # Each relation holds two conditionally convergent words; the skip
        # names the first in combination order, then factor order.
        a = IndexedWord(((1, MINUS_ONE), (2, ONE)))
        b = IndexedWord(((1, GroupElement(1, 3)), (3, ONE)))
        fine = IndexedWord(((2, MINUS_ONE), (1, ONE)))
        rels = [Relation("double-shuffle", (), LinComb([(fine, 2), (b, -1), (a, 3)])),
                Relation("product", (b, a), LinComb.single(fine)),
                Relation("product", (fine, a), LinComb([(b, 1), (fine, 2)]))]
        stream = tmp_path / "conditional.jsonl"
        stream.write_text("".join(json.dumps(relation_to_json(r)) + "\n"
                                  for r in rels))
        named = ["(1,2|1/2,0/1)", "(1,3|1/3,0/1)", "(1,3|1/3,0/1)"]
        reasons = [f"{w} converges only conditionally" for w in named]
        code, out, _ = self.run(capsys, "verify", "--terms", "1000",
                                "--input", str(stream))
        assert code == 0
        assert out.splitlines() == [
            f"skip {r.label} ({why})" for r, why in zip(rels, reasons)
        ] + ["0/0 relations verified, 3 skipped"]
        code, out, _ = self.run(capsys, "verify", "--terms", "1000",
                                "--format", "json", "--input", str(stream))
        assert code == 0
        assert [json.loads(x) for x in out.splitlines()] == [
            {"label": r.label, "skipped": why} for r, why in zip(rels, reasons)]

    def test_verify_skips_conditional_words(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, "relations", "--weight", "6",
                                "--depth", "3", "--group", "root:2",
                                "--hoffman", "--format", "json")
        assert code == 0
        stream = tmp_path / "relations.jsonl"
        stream.write_text(out)
        lines = out.splitlines()
        code, out, _ = self.run(capsys, "verify", "--terms", "1000",
                                "--format", "json", "--input", str(stream))
        assert code == 0
        records = [json.loads(x) for x in out.splitlines()]
        assert len(records) == len(lines)
        skipped = [x for x in records if "skipped" in x]
        assert skipped
        assert all("conditionally" in x["skipped"] for x in skipped)
        assert not any("allow_conditional=" in x["skipped"] for x in skipped)
        assert all(x["passed"] for x in records if "skipped" not in x)
        code, out, _ = self.run(capsys, "verify", "--terms", "1000",
                                "--input", str(stream))
        assert code == 0
        out_lines = out.splitlines()
        assert len(out_lines) == len(lines) + 1
        assert sum(x.startswith("skip ") for x in out_lines) == len(skipped)
        assert out_lines[-1].endswith(f", {len(skipped)} skipped")

    def test_verify_sums_large_exponents_quietly(self):
        """n ** 62 overflows to inf past n = 93,700, within the default
        truncation, and 1 / inf is the right 0.0: nothing reaches stderr,
        and zeta(62) still reads as 1.0.  So does an exponent past float
        range, 10**400."""
        for s in ("62", "1" + "0" * 400):
            line = '{"terms": [{"coeff": "1", "s": [%s], "m": ["0/1"]}]}\n' % s
            proc = fresh_python("-m", "doubleshuffle", "verify", "--format",
                                "json", stdin=line)
            assert proc.stderr == ""
            assert proc.returncode == 1
            got = json.loads(proc.stdout)
            bound = got.pop("bound")
            assert got == {"label": "double-shuffle[]", "passed": False,
                           "residual": 1.0}
            # the tolerance plus the rounding of zeta(s) = 1.0
            assert 0.001 <= bound <= 0.001 + 1e-15

    def test_verify_proves_zeta_21_at_zero_tolerance(self, capsys, tmp_path):
        """zeta(2,1) = zeta(3) with 1000 terms and no tolerance: each value's
        bound covers its error, so a true relation passes."""
        rel = Relation("double-shuffle", (),
                       LinComb([(zw(2, 1), 1), (zw(3), -1)]))
        stream = tmp_path / "zeta21.jsonl"
        stream.write_text(json.dumps(relation_to_json(rel)) + "\n")
        code, out, _ = self.run(capsys, "verify", "--terms", "1000",
                                "--tol", "0", "--input", str(stream))
        assert code == 0, out
        assert out.splitlines()[-1] == "1/1 relations verified"

    def test_verify_passes_the_sign_stream_at_zero_tolerance(self, capsys,
                                                             tmp_path):
        code, out, _ = self.run(capsys, "relations", "--weight", "6",
                                "--depth", "3", "--group", "sign",
                                "--hoffman", "--format", "json")
        stream = tmp_path / "sign.jsonl"
        stream.write_text(out)
        code, out, _ = self.run(capsys, "verify", "--terms", "100000",
                                "--tol", "0", "--input", str(stream))
        assert code == 0, out
        assert out.splitlines()[-1] == "45/45 relations verified, 30 skipped"

    @pytest.mark.parametrize("weight, lines, digest", [
        (6, 75, None), (8, 159, "54eaa9e5")])
    def test_verify_sums_conditional_words_when_allowed(
            self, capsys, tmp_path, weight, lines, digest):
        """Every line of the sign streams passes at --tol 1e-12, the lines
        with conditionally convergent words too; the weight-8 stream is the
        benchmark's verify input."""
        code, out, _ = self.run(capsys, "relations", "--weight", str(weight),
                                "--depth", "3", "--group", "sign",
                                "--hoffman", "--format", "json")
        assert hashlib.sha256(out.encode()).hexdigest().startswith(
            digest or "")
        stream = tmp_path / "sign.jsonl"
        stream.write_text(out)
        code, out, _ = self.run(capsys, "verify", "--allow-conditional",
                                "--tol", "1e-12", "--input", str(stream))
        assert code == 0, out
        assert out.splitlines()[-1] == f"{lines}/{lines} relations verified"

    def test_module_entry_point(self, capsys):
        proc = fresh_python("-m", "doubleshuffle", "euler", "2", "3")
        _, out, _ = self.run(capsys, "euler", "2", "3")
        assert proc.returncode == 0
        assert proc.stdout == out

    def test_a_reader_that_closes_early_ends_the_stream_quietly(self):
        # about 380 kB of JSON lines, more than the pipe and the stdout
        # buffer hold, so the writer meets the closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "doubleshuffle", "relations", "--weight",
             "12", "--depth", "4", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env())
        assert proc.stdout.readline().startswith(b'{"kind"')
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    @pytest.mark.parametrize("weight, depth, group", [
        (4, 1, "trivial"), (4, 1, "root:3"), (5, 2, "sign"),
        (6, 3, "trivial"), (5, 3, "root:3"), (4, 2, "root:12")])
    def test_relations_lines_equal_the_items_reference(
            self, capsys, fmt, weight, depth, group):
        code, out, _ = self.run(capsys, "relations", "--weight", str(weight),
                                "--depth", str(depth), "--group", group,
                                "--hoffman", "--format", fmt)
        assert code == 0
        order = cli._group_order(group)
        want = [reference_line(rel, fmt, group) for rel in
                relation_stream(weight, depth, order, hoffman=True)]
        assert want and out == "".join(line + "\n" for line in want)

    def test_relations_text_and_latex_bytes_are_pinned(self, capsys):
        """sha256 of lines printed before the writer and ``LinComb.items()``
        shared one key, so the order is checked against more than that key."""
        pinned = [
            ("root:12", 5, 2, "text", "54b2b2ec24cd1ee255f97b46b233729f"
                                      "3b82e1a7a90e38950928ea2ca874ce96"),
            ("root:12", 5, 2, "latex", "8b87ef3830e99232824d2d8e58f4af3c"
                                       "ad871970c771c8438a8a73f47f58a488"),
            ("sign", 6, 3, "text", "30c37003fab42cd3249821faa9565c69"
                                   "8fffede4d9336b12d844e646f8f69388"),
            ("sign", 6, 3, "latex", "5daf0a94108c9d94fd4a75d6922efdd2"
                                    "8a1d0e59858871da90d6eee33af7ae89"),
        ]
        for group, weight, depth, fmt, digest in pinned:
            code, out, _ = self.run(capsys, "relations", "--weight",
                                    str(weight), "--depth", str(depth),
                                    "--group", group, "--hoffman",
                                    "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, \
                (group, fmt)

    def test_internal_key_error_propagates(self, monkeypatch):
        """Only input faults exit 2; a dict miss inside a command is a bug."""
        def broken(args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "_cmd_euler", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["euler", "2", "3"])

    def test_internal_import_error_propagates(self, monkeypatch):
        """No command imports at run time, so an ImportError is a bug."""
        def broken(args):
            raise ImportError("internal")

        monkeypatch.setattr(cli, "_cmd_euler", broken)
        with pytest.raises(ImportError, match="internal"):
            main(["euler", "2", "3"])

    def test_verify_json_bytes_are_pinned(self, capsys, tmp_path):
        """sha256 of verify's JSON lines on the sign weight-6 stream at
        --tol 0: a residual or bound that moves by one bit changes it."""
        code, out, _ = self.run(capsys, "relations", "--weight", "6",
                                "--depth", "3", "--group", "sign",
                                "--hoffman", "--format", "json")
        assert code == 0
        stream = tmp_path / "sign.jsonl"
        stream.write_text(out)
        code, out, _ = self.run(capsys, "verify", "--format", "json",
                                "--tol", "0", "--input", str(stream))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4d24cfedc44c3a5a3df36df0076c9d63"
            "84eebbc418ac6c7e61caaff464081b6a")

    def test_relations_root_group(self, capsys):
        code, out, _ = self.run(capsys, "relations", "--weight", "3",
                                "--depth", "2", "--group", "root:4",
                                "--format", "json")
        assert code == 0
        for line in out.strip().splitlines():
            rel = relation_from_json(json.loads(line))
            assert rel.combination


# Runs the CLI in a new interpreter in which ``import numpy`` fails.
NO_NUMPY_MAIN = ('import sys; sys.modules["numpy"] = None; '
                 'from doubleshuffle.cli import main; sys.exit(main(sys.argv[1:]))')
NUMERIC_NAMES = ["lambda_numeric", "mpl_numeric", "verify_relation_numeric"]


class TestStartWithoutNumpy:
    """No command needs numpy, nor loads it."""

    def test_importing_the_package_and_cli_leaves_numpy_out(self):
        proc = fresh_python("-c", "import sys, doubleshuffle, doubleshuffle.cli; "
                                  "print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("argv", [
        ["relations", "--weight", "5", "--depth", "3", "--group", "root:3",
         "--hoffman", "--format", "json"],
        ["explicit", "(2,1|1/3,0/1)", "(1,2|2/3,1/3)", "--format", "json"],
        ["stuffle", "(2,1|1/3,0/1)", "(1,2|2/3,1/3)"],
        ["shuffle", "0 [1/3] 1", "[2/3] 0 [1/3]", "--as-indexed"],
        ["perm-form", "(2,1|1/3,0/1)", "(1,2|2/3,1/3)"],
        ["euler", "3", "4"],
    ], ids=lambda argv: argv[0])
    def test_symbolic_commands_run_with_numpy_blocked(self, capsys, argv):
        proc = fresh_python("-c", NO_NUMPY_MAIN, *argv)
        code = main(argv)
        out = capsys.readouterr().out
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stderr == ""
        assert out and proc.stdout == out

    def test_verify_succeeds_with_numpy_blocked(self):
        """The block above is real, and the one command that sums runs
        under it."""
        line = ('{"terms": [{"coeff": "1", "s": [2, 1], "m": ["0/1", "0/1"]}, '
                '{"coeff": "-1", "s": [3], "m": ["0/1"]}]}\n')
        proc = fresh_python("-c", NO_NUMPY_MAIN, "verify", "--tol", "0",
                            stdin=line)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "1/1 relations verified"

    @pytest.mark.parametrize("name", NUMERIC_NAMES)
    def test_numeric_name_without_numpy(self, name):
        proc = fresh_python("-c", "\n".join([
            "import sys",
            "from doubleshuffle import values",
            f"from doubleshuffle import {name}",
            f"assert {name} is values.{name}",
            "values.verify_relation_numeric(values.euler_relation(2, 3), "
            "1000, 0.0)",
            "assert 'numpy' not in sys.modules",
        ]))
        assert proc.returncode == 0, proc.stderr

    def test_star_import_dir_and_unknown_names(self):
        proc = fresh_python("-c", "\n".join([
            "import sys, doubleshuffle",
            "assert set(doubleshuffle.__all__) <= set(dir(doubleshuffle))",
            "try:",
            "    doubleshuffle.no_such_name",
            "except AttributeError as exc:",
            "    assert 'no_such_name' in str(exc)",
            "else:",
            "    raise AssertionError('no AttributeError')",
            "assert 'numpy' not in sys.modules",
            "from doubleshuffle import *",
            "missing = [n for n in doubleshuffle.__all__ if n not in globals()]",
            "assert not missing, missing",
        ]))
        assert proc.returncode == 0, proc.stderr
        assert set(NUMERIC_NAMES) <= set(doubleshuffle.__all__)
