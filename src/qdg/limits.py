"""The engine's budgets: a cap on the letters of a word and a budget on
the terms of an intermediate element, shared by the kernel (`boxtilde`),
the free algebra (`freealg`), the parser (`expr`) and the command line,
which sets them from QDG_WORD_CAP and QDG_TERM_BUDGET.  `LIMITS` is the
one live instance; `boxtilde` binds the same objects under the same
names."""


class ReductionBudgetError(RuntimeError):
    """Word length exceeded the configured cap."""


class TermBudgetError(RuntimeError):
    """An intermediate element exceeded the configured term budget."""


class EngineLimits:
    """The engine's budgets; the class attributes are the defaults."""

    word_cap = 64
    term_budget = 1_000_000


LIMITS = EngineLimits()


def _check_word_cap(op: str, length: int) -> None:
    if length > LIMITS.word_cap:
        raise ReductionBudgetError(
            "reduction budget: %s reached %d letters (cap %d)" % (op, length, LIMITS.word_cap)
        )


def _check_term_budget(op: str, size: int) -> None:
    if size > LIMITS.term_budget:
        raise TermBudgetError(
            "term budget: %s reached %d terms (limit %d)" % (op, size, LIMITS.term_budget)
        )
