"""The exception of a failed internal self-check."""


class SelfCheckError(AssertionError):
    """A result failed diffsym's own verification: a defect in diffsym, not in its input.

    Raised explicitly, so ``python -O`` keeps it, where it would strip an
    ``assert``. It subclasses AssertionError, so ``except AssertionError``
    still catches it; the CLI exits with code 3 on it.
    """
