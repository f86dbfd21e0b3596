"""Seeded inputs for the benchmark workloads, each with its own oracle.

Nothing here calls specsyn: manuals are filled from the program's seed
templates, and configs and spec files are written from scratch, so the
expected outputs (gold rules, check verdicts) are known by construction
and never copied from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import textwrap
from dataclasses import dataclass, field
from pathlib import Path


def derived_seed(seed: int, label: str, avoid: int | None = None) -> int:
    """A 28-bit seed for one use of the run seed; never equal to `avoid`."""
    value = int(hashlib.sha256(f"{label}:{seed}".encode()).hexdigest()[:7], 16)
    return value + 1 if value == avoid else value


def _lexicon(path: Path) -> list[str]:
    lines = (line.strip().lower() for line in path.read_text(encoding="utf-8").splitlines())
    return list(dict.fromkeys(line for line in lines if line and not line.startswith("#")))


# ---------------------------------------------------------------------------
# extract: manuals with known gold rules

_UNITS = ("bytes", "kb", "mb", "gb", "ms", "seconds")
_TRUE_SURFACES = frozenset({"enable", "enabled", "on", "true", "yes"})
_SLOT_RE = re.compile(r"\{(kw|num|bool|unit|format|version)(\d*)\}")


@dataclass
class Manual:
    name: str
    format: str  # plain | html | comments
    text: str
    gold: list[str]  # one rule per placed template, in concrete DSL text


@dataclass
class ManualSet:
    keywords: list[str]
    manuals: list[Manual] = field(default_factory=list)


class _Filler:
    def __init__(self, data_dir: Path, rng: random.Random):
        seeds = json.loads((data_dir / "seeds.json").read_text(encoding="utf-8"))
        self.keywords = list(seeds["keywords"])
        self.templates = seeds["templates"]
        self.negatives = seeds["negatives"]
        lines = (data_dir / "distractors.txt").read_text(encoding="utf-8").splitlines()
        self.distractors = [s.strip() for s in lines if s.strip() and not s.startswith("#")]
        self.bools = _lexicon(data_dir / "bool.lex")
        self.formats = _lexicon(data_dir / "format.lex")
        self.rng = rng

    def fillers(self, texts) -> dict:
        rng = self.rng
        names = []
        for text in texts:
            for m in _SLOT_RE.finditer(text):
                if m.group(1) + m.group(2) not in names:
                    names.append(m.group(1) + m.group(2))
        kws = rng.sample(self.keywords, sum(1 for n in names if n.startswith("kw")))
        out = {}
        for name in names:
            kind = _SLOT_RE.fullmatch("{" + name + "}").group(1)
            if kind == "kw":
                out[name] = kws.pop()
            elif kind == "num":
                n = rng.randrange(65536)
                out[name] = f"{n:,}" if n >= 10000 and rng.random() < 0.5 else str(n)
            elif kind == "bool":
                out[name] = rng.choice(self.bools)
            elif kind == "unit":
                out[name] = rng.choice(_UNITS)
            elif kind == "format":
                out[name] = rng.choice(self.formats)
            else:
                out[name] = ".".join(str(rng.randrange(a, b)) for a, b in ((1, 21), (0, 31), (0, 31)))
        return out

    @staticmethod
    def gold(target: str, fillers: dict) -> str | None:
        """The rule a filled target states, or None when it is not a valid
        rule (an interval whose bounds came out in the wrong order)."""
        tokens = []
        for token in target.split():
            m = _SLOT_RE.fullmatch(token)
            if m is None:
                tokens.append(token)
                continue
            surface = fillers[m.group(1) + m.group(2)]
            if m.group(1) == "num":
                tokens.append(surface.replace(",", ""))
            elif m.group(1) == "bool":
                tokens.append("true" if surface in _TRUE_SURFACES else "false")
            elif m.group(1) == "format":
                tokens.append(f'"{surface}"')
            else:
                tokens.append(surface)
        text = " ".join(tokens)
        m = re.search(r"\[ (\d+)(?: \w+)? , (\d+)", text)
        if m and int(m.group(1)) > int(m.group(2)):
            return None
        return text


def _sentence(text: str, fillers: dict) -> str:
    """Fill one template sentence and capitalise it the way manuals do:
    a sentence that opens with a parameter name keeps it lowercase."""
    filled = _SLOT_RE.sub(lambda m: fillers[m.group(1) + m.group(2)], text)
    return filled if text.startswith("{kw") else filled[:1].upper() + filled[1:]


def _render(name: str, fmt: str, paragraphs: list[str]) -> str:
    if fmt == "plain":
        return "Server options\n\n" + "\n\n".join(paragraphs) + "\n"
    if fmt == "html":
        body = "".join(f"<p>{p}</p>\n" for p in paragraphs)
        return (
            "<html><head><title>Server options</title>"
            "<style>p { margin: 0 }</style></head>\n<body><h1>Server options</h1>\n"
            f"{body}<script>var shown = 1;</script></body></html>\n"
        )
    parts = []
    for i, p in enumerate(paragraphs):
        if i % 2:
            parts.append(f"// {p}\n")
        else:
            wrapped = textwrap.wrap(p, 72)
            parts.append("/*\n" + "".join(f" * {line}\n" for line in wrapped) + " */\n")
        parts.append(f"static int option_{i} = {i};\n\n")
    return f"/* {name}: server options. */\n\n" + "".join(parts)


def make_manuals(data_dir: Path, seed: int, count: int, rules_per_manual: int) -> ManualSet:
    """`count` manuals cycling through plain, HTML and source-comment form.

    Each placed rule sits in its own paragraph after an optional distractor
    and before one, so a three-sentence window holds at most two rules;
    a negative (a keyword and no constraint) follows every third rule.
    """
    rng = random.Random(derived_seed(seed, "manuals"))
    filler = _Filler(data_dir, rng)
    out = ManualSet(filler.keywords)
    for index in range(count):
        fmt = ("plain", "html", "comments")[index % 3]
        paragraphs, gold = [], []
        for placed in range(rules_per_manual):
            while True:
                template = rng.choice(filler.templates)
                fills = filler.fillers(template["sentences"])
                rule = filler.gold(template["target"], fills)
                if rule is not None:
                    break
            gold.append(rule)
            body = [_sentence(s, fills) for s in template["sentences"]]
            if rng.random() < 0.5:
                body.insert(0, _sentence(rng.choice(filler.distractors), {}))
            body.append(_sentence(rng.choice(filler.distractors), {}))
            paragraphs.append(" ".join(body))
            if placed % 3 == 2:
                negative = rng.choice(filler.negatives)
                fills = filler.fillers(negative["sentences"])
                body = [_sentence(s, fills) for s in negative["sentences"]]
                body.append(_sentence(rng.choice(filler.distractors), {}))
                paragraphs.append(" ".join(body))
        name = f"manual{index:02d}" + {"plain": ".txt", "html": ".html", "comments": ".c"}[fmt]
        out.manuals.append(Manual(name, fmt, _render(name, fmt, paragraphs), gold))
    return out


_NUMBER_RE = re.compile(r"\d+(?:,\d{3})*(?:\.\d+)?")


def numbers_in(text: str) -> set[float]:
    return {float(m.group().replace(",", "")) for m in _NUMBER_RE.finditer(text)}


def mentions(text: str, keyword: str) -> bool:
    pattern = rf"(?<![a-z0-9_-]){re.escape(keyword.lower())}(?![a-z0-9_-])"
    return re.search(pattern, text.lower()) is not None


# ---------------------------------------------------------------------------
# check: configs and spec files whose verdicts are chosen up front

_WORDS = (
    "buffer", "cache", "log", "net", "thread", "pool", "query", "sort", "tmp",
    "ssl", "io", "disk", "page", "lock", "flush", "repl", "binlog", "audit",
)
_ROLES = ("size", "limit", "timeout", "count", "mode", "path", "host", "level", "rate", "window")
_FORMATS = {
    # format class -> (a value of that form, a value not of that form)
    "absolute path": ("/srv/data/{i}", "data/{i}"),
    "relative path": ("logs/{i}", "/logs/{i}"),
    "email address": ("ops{i}@example.com", "ops{i}.example.com"),
    "domain name": ("db{i}.example.org", "db_{i}.example.org"),
    "url": ("https://h{i}.example.com/x", "h{i}.example.com/x"),
    "ip address": ("10.1.{a}.{b}", "10.1.{a}.300"),
}
_MODES = ("fast", "safe", "strict", "lazy", "eager", "compat")
_TRUE_WORDS = ("on", "true", "yes", "enabled", "enable")
_FALSE_WORDS = ("off", "false", "no", "disabled", "disable")


@dataclass
class CheckCase:
    """One spec file and one config, with the findings `check` must report."""

    name: str
    format: str  # kv | ini
    specs: str
    config: str
    expected: list[tuple[str, str]]  # (key, verdict), in report order

    @property
    def exit_status(self) -> int:
        return 1 if any(v != "AdvisoryOnly" for _, v in self.expected) else 0


class _CheckBuilder:
    def __init__(self, rng: random.Random, n_keys: int, fmt: str, section_size: int = 100):
        self.rng = rng
        self.fmt = fmt
        names = [f"{rng.choice(_WORDS)}_{rng.choice(_ROLES)}_{i:05d}" for i in range(n_keys)]
        rng.shuffle(names)
        self.free = names  # keys not yet bound to a rule
        self.values: dict[str, str] = {}
        self.section = {name: f"section_{i // section_size:03d}" for i, name in enumerate(names)}
        self.absent = 0

    def full(self, key: str) -> str:
        return f"{self.section[key]}.{key}" if self.fmt == "ini" else key

    def key(self) -> str:
        return self.free.pop()

    def missing(self) -> str:
        self.absent += 1
        return f"absent_{self.rng.choice(_ROLES)}_{self.absent:05d}"

    # each leaf returns (rule text, hard finding or None, advisory or None)

    def quantitative(self):
        rng = self.rng
        outcome = rng.choices(("ok", "bad", "type", "missing"), (5, 4, 1, 1))[0]
        kind = rng.choice(("gt", "lt", "interval", "eq", "neq", "set", "bool", "modes"))
        if outcome == "type" and kind == "modes":
            kind = "gt"  # a word never has the wrong type for a set of words
        key = self.missing() if outcome == "missing" else self.key()
        unit = rng.choice(_UNITS) if kind in ("gt", "lt", "interval") and rng.random() < 0.4 else None
        tail = f" {unit}" if unit else ""
        m = rng.randrange(10, 60000)
        if kind == "gt":
            rule = f"{key} > {m}{tail}"
            value = rng.randrange(m + 1, m + 5000) if outcome == "ok" else rng.randrange(0, m + 1)
        elif kind == "lt":
            rule = f"{key} < {m}{tail}"
            value = rng.randrange(0, m) if outcome == "ok" else rng.randrange(m, m + 5000)
        elif kind == "interval":
            hi = m + rng.randrange(0, 5000)
            rule = f"{key} in [{m}{tail}, {hi}{tail}]"
            if outcome == "ok":
                value = rng.randint(m, hi)
            else:
                value = rng.choice((rng.randrange(0, m), rng.randrange(hi + 1, hi + 5000)))
        elif kind in ("eq", "neq"):
            rule = f"{key} {'==' if kind == 'eq' else '!='} {m}"
            equal = (outcome == "ok") == (kind == "eq")
            value = m if equal else m + rng.randrange(1, 100)
        elif kind == "set":
            members = rng.sample(range(m, m + 50), 3)
            rule = f"{key} in {{{', '.join(map(str, members))}}}"
            value = rng.choice(members) if outcome == "ok" else m + 50 + rng.randrange(100)
        elif kind == "bool":
            flag = rng.random() < 0.5
            rule = f"{key} == {'true' if flag else 'false'}"
            agree = outcome == "ok"
            value = rng.choice(_TRUE_WORDS if flag == agree else _FALSE_WORDS)
        else:
            modes = rng.sample(_MODES, 3)
            rule = f"{key} in {{{', '.join(modes[:2])}}}"
            value = rng.choice(modes[:2]) if outcome == "ok" else modes[2]
        if outcome == "missing":
            return rule, (key, "MissingKey"), None
        if outcome == "type":
            value = rng.choice(("auto", "maybe", "unset"))
        elif unit and kind in ("gt", "lt", "interval"):
            value = f"{value} {unit}"
        self.values[key] = str(value)
        if outcome == "ok":
            return rule, None, None
        return rule, (self.full(key), "WrongType" if outcome == "type" else "ValueOutOfRange"), None

    def advisory(self):
        rng = self.rng
        kind = rng.choice(("use", "recommend", "with", "prefer", "format"))
        if kind in ("use", "recommend"):
            if rng.random() < 0.5:
                key = self.key()
                self.values[key] = str(rng.randrange(100))
                return f"{kind}({key})", None, None
            key = self.missing()
            return f"{kind}({key})", None, (key, "AdvisoryOnly")
        if kind == "with":
            a, b = self.key(), self.key()
            self.values[a] = str(rng.randrange(100))
            if rng.random() < 0.5:
                self.values[b] = str(rng.randrange(100))
                return f"with({a}, {b})", None, None
            return f"with({a}, {b})", (b, "MissingKey"), None
        if kind == "prefer":
            a, b = self.key(), self.key()
            self.values[b] = str(rng.randrange(100))
            if rng.random() < 0.5:
                self.values[a] = str(rng.randrange(100))
                return f"prefer({a}, {b})", None, None
            return f"prefer({a}, {b})", None, (a, "AdvisoryOnly")
        key = self.key()
        form = rng.choice(sorted(_FORMATS))
        good = rng.random() < 0.5
        template = _FORMATS[form][0 if good else 1]
        self.values[key] = template.format(i=rng.randrange(1000), a=rng.randrange(256), b=rng.randrange(256))
        finding = None if good else (self.full(key), "FormatMismatch")
        return f'format({key}, "{form}")', finding, None

    def config_text(self) -> str:
        for key in self.free:  # keys no rule names: plain filler entries
            self.values[key] = str(self.rng.randrange(100000))
        if self.fmt == "kv":
            lines = ["# generated key-value config"]
            lines += [f"{k} = {v}" for k, v in self.values.items()]
            return "\n".join(lines) + "\n"
        by_section: dict[str, list[str]] = {}
        for key, value in self.values.items():
            by_section.setdefault(self.section[key], []).append(f"{key} = {value}")
        lines = ["; generated INI config"]
        for name in sorted(by_section):
            lines.append(f"[{name}]")
            lines.extend(by_section[name])
        return "\n".join(lines) + "\n"


def make_check_case(seed: int, name: str, fmt: str, n_keys: int, n_specs: int) -> CheckCase:
    """A config of `n_keys` unique keys and a spec file of `n_specs` lines.

    Every relation occurs; one spec in eight joins two quantitative rules
    with `and` or `or`. No two keys share a last component, so a rule
    keyword finds at most one INI entry, and a rule with a unit only meets
    values in that unit.
    """
    rng = random.Random(derived_seed(seed, f"check:{name}"))
    builder = _CheckBuilder(rng, n_keys, fmt)
    lines, expected = [], []
    for _ in range(n_specs):
        roll = rng.random()
        if roll < 0.125:
            (r1, f1, _), (r2, f2, _) = builder.quantitative(), builder.quantitative()
            connective = rng.choice(("and", "or"))
            lines.append(f"{r1} {connective} {r2}")
            hard = [f for f in (f1, f2) if f]
            if connective == "and" or len(hard) == 2:
                expected.extend(hard)
        else:
            rule, hard, advisory = builder.quantitative() if roll < 0.6 else builder.advisory()
            lines.append(rule)
            expected.extend(f for f in (hard, advisory) if f)
    specs = "# generated rules\n" + "\n".join(lines) + "\n"
    return CheckCase(name, fmt, specs, builder.config_text(), expected)
