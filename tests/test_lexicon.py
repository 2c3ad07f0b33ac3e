import pytest
from hypothesis import given, strategies as st

from mfquant.errors import LexiconError
from mfquant.lexicon import (
    FOUNDATIONS,
    VICE,
    VIRTUE,
    MFDictionary,
    MFEntry,
    load_dictionary,
    write_dictionary_report,
)


def write_dict(tmp_path, rows, name="dict.tsv"):
    path = tmp_path / name
    path.write_text("".join(f"{p}\t{f}\t{pol}\n" for p, f, pol in rows), encoding="utf-8")
    return path


def brute_matched(entries, vocab):
    """Independent matcher: per-entry scan with plain string ops."""
    hit = []
    for e in entries:
        if e.pattern.endswith("*"):
            stem = e.pattern[:-1]
            hit.append(any(w.startswith(stem) for w in vocab))
        else:
            hit.append(e.pattern in vocab)
    return hit


class TestLoadDictionary:
    def test_parse_row(self, tmp_path):
        d = load_dictionary(write_dict(tmp_path, [("kill*", "Care", "vice")]))
        assert d.entries == (MFEntry("kill*", "Care", "vice"),)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        d = load_dictionary(path)
        assert len(d.entries) == 0 and len(d.select(VICE)) == 0

    def test_vice_count_counts_only_five_foundations(self, tmp_path, packaged_dict):
        vice_rows = [
            (e.pattern, e.foundation, e.polarity)
            for e in packaged_dict.entries
            if e.polarity == VICE and e.foundation in FOUNDATIONS
        ]
        assert len(vice_rows) == 149
        d = load_dictionary(write_dict(tmp_path, vice_rows + [("safe*", "Care", "virtue")]))
        assert len(d.select(VICE)) == 149

    def test_packaged_dictionary_has_149_vice_entries(self, packaged_dict):
        assert len(packaged_dict.select(VICE)) == 149

    def test_leading_byte_order_mark_is_not_part_of_the_first_pattern(self, tmp_path):
        path = write_dict(tmp_path, [("harm", "Care", "vice"), ("cheat*", "Fairness", "vice")])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        d = load_dictionary(path)
        assert [e.pattern for e in d.entries] == ["harm", "cheat*"]

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(LexiconError):
            load_dictionary(tmp_path / "nope.tsv")

    def test_malformed_row_fatal_with_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("kill*\tCare\tvice\nbroken row\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=":2"):
            load_dictionary(path)

    def test_lines_break_at_newlines_only(self, tmp_path):
        """A form feed or a \\x1c is no line break: line numbers and fields are those the newlines give."""
        path = tmp_path / "breaks.tsv"
        path.write_text("kill*\tCare\tvice\nharm\tCare\tvice\f\nx\tBravery\tvice\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=":3: unknown foundation"):
            load_dictionary(path)
        path.write_text("kill*\tCare\tvice\nha\x1crm\tCare\tvice\n", encoding="utf-8")
        assert [e.pattern for e in load_dictionary(path).entries] == ["kill*", "ha\x1crm"]

    def test_unknown_foundation_rejected(self, tmp_path):
        with pytest.raises(LexiconError, match="foundation"):
            load_dictionary(write_dict(tmp_path, [("x", "Bravery", "vice")]))

    def test_unknown_polarity_rejected(self, tmp_path):
        with pytest.raises(LexiconError, match="polarity"):
            load_dictionary(write_dict(tmp_path, [("x", "Care", "neutral")]))

    def test_star_only_allowed_at_end(self, tmp_path):
        with pytest.raises(LexiconError, match="final"):
            load_dictionary(write_dict(tmp_path, [("ki*ll", "Care", "vice")]))


class TestMatchWord:
    @pytest.fixture
    def fixture_dict(self):
        return MFDictionary([
            MFEntry("kill*", "Care", VICE),
            MFEntry("war", "Care", VICE),
            MFEntry("treason*", "Ingroup", VICE),
            MFEntry("treason*", "Authority", VICE),
            MFEntry("safe*", "Care", VIRTUE),
        ])

    def test_stem_matches_extension(self, fixture_dict):
        assert fixture_dict.match_word("killing", VICE) == {"Care"}

    def test_word_shorter_than_stem_no_match(self, fixture_dict):
        assert fixture_dict.match_word("kil", VICE) == set()

    def test_stem_matches_itself(self, fixture_dict):
        assert fixture_dict.match_word("kill", VICE) == {"Care"}

    def test_exact_never_matches_longer_word(self, fixture_dict):
        assert fixture_dict.match_word("warrior", VICE) == set()

    def test_multiple_foundations(self, fixture_dict):
        assert fixture_dict.match_word("treasonous", VICE) == {"Ingroup", "Authority"}

    def test_polarity_respected(self, fixture_dict):
        assert fixture_dict.match_word("safely", VICE) == set()
        assert fixture_dict.match_word("safely", VIRTUE) == {"Care"}

    def test_packaged_examples(self, packaged_dict):
        assert packaged_dict.match_word("killing") == {"Care"}
        assert packaged_dict.match_word("treasonous") == {"Ingroup", "Authority"}

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    def test_result_subset_of_dictionary_foundations(self, word):
        d = MFDictionary([
            MFEntry("kill*", "Care", VICE),
            MFEntry("treason*", "Ingroup", VICE),
        ])
        assert d.match_word(word, VICE) <= {"Care", "Ingroup"}


class TestCoverage:
    def small_dict(self):
        return MFDictionary([
            MFEntry("kill*", "Care", VICE),
            MFEntry("war", "Care", VICE),
            MFEntry("unfair*", "Fairness", VICE),
            MFEntry("sin", "Purity", VICE),
        ])

    @staticmethod
    def matched_count(report):
        return sum(1 for _, _, words, _ in report.coverage if words)

    def test_direct_ratio(self, dictionary_report):
        report = dictionary_report(self.small_dict(), dict.fromkeys(["killing", "war", "sin"], 1))
        assert float(report.fraction) == pytest.approx(0.75)
        assert self.matched_count(report) == 3

    def test_empty_vocabulary(self, dictionary_report):
        report = dictionary_report(self.small_dict(), {})
        assert report.fraction == "0.0"
        assert report.vice == [] and self.matched_count(report) == 0

    def test_empty_dictionary_errors(self, tmp_path):
        with pytest.raises(LexiconError):
            write_dictionary_report(MFDictionary([]), {"war": 1}, tmp_path / "c.tsv", tmp_path / "v.tsv")
        assert not list(tmp_path.iterdir())

    def test_monotone_in_vocabulary(self, dictionary_report):
        d = self.small_dict()
        base = float(dictionary_report(d, {"war": 1}).fraction)
        bigger = float(dictionary_report(d, {"war": 1, "sin": 1, "unrelated": 1}).fraction)
        assert bigger >= base

    def test_frequencies_from_mapping(self, dictionary_report):
        report = dictionary_report(self.small_dict(), {"war": 7, "killing": 2})
        by_pattern = {pattern: (words, counts) for _, pattern, words, counts in report.coverage}
        assert by_pattern["war"] == (["war"], [7])
        assert by_pattern["kill*"] == (["killing"], [2])

    def test_synthetic_121_of_149(self, packaged_dict, dictionary_report):
        """Greedy vocabulary construction verified by the independent matcher."""
        vice_entries = [
            e for e in packaged_dict.entries
            if e.polarity == VICE and e.foundation in FOUNDATIONS
        ]
        assert len(vice_entries) == 149
        vocab: set[str] = set()
        for entry in vice_entries:
            candidate = entry.stem
            tentative = vocab | {candidate}
            matched = sum(brute_matched(vice_entries, tentative))
            if matched <= 121:
                vocab = tentative
            if matched == 121:
                break
        assert sum(brute_matched(vice_entries, vocab)) == 121
        report = dictionary_report(packaged_dict, dict.fromkeys(vocab, 1))
        assert self.matched_count(report) == 121
        assert float(report.fraction) == pytest.approx(121 / 149)
        assert f"{float(report.fraction):.3f}" == "0.812"

    def test_coverage_agrees_with_brute_force(self, packaged_dict, dictionary_report):
        vocab = {"killing", "war", "sinful", "treason", "illegal", "nonsense"}
        vice_entries = [
            e for e in packaged_dict.entries
            if e.polarity == VICE and e.foundation in FOUNDATIONS
        ]
        expected = sum(brute_matched(vice_entries, vocab))
        assert self.matched_count(dictionary_report(packaged_dict, dict.fromkeys(vocab, 1))) == expected

    def test_report_file(self, tmp_path):
        path = tmp_path / "coverage.tsv"
        write_dictionary_report(self.small_dict(), {"war": 3}, path, tmp_path / "vice_report.tsv")
        text = path.read_text(encoding="utf-8")
        assert "Care\twar\twar\t3" in text
        assert "coverage_fraction" in text
